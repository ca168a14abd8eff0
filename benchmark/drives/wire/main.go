// Command drive-wire times wire.EncodeMessage and wire.DecodeMessage per
// message type, on real frames the traced run's tap captured (-frames)
// or, without them, on each package's WireSamples.
package main

import (
	"encoding/binary"
	"flag"
	"os"

	"repro/benchmark/drives/drive"
	"repro/internal/consensus/pbft"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/txn"
	"repro/internal/wire"
)

var frames = flag.String("frames", "", "length-prefixed captured frames")

// metricOf names the five message types the benchmark reports.
var metricOf = map[string]string{
	"pbft/request":     "request",
	"pbft/pre-prepare": "preprepare",
	"pbft/prepare":     "vote",
	"txn/prepare":      "txn_prepare",
	"query/chunk":      "query_chunk",
}

func main() {
	flag.Parse()
	byType := map[string][]simnet.Message{}
	if raw, err := os.ReadFile(*frames); err == nil {
		for len(raw) >= 4 {
			n := int(binary.BigEndian.Uint32(raw))
			if n > len(raw)-4 {
				break
			}
			if m, err := wire.DecodeMessage(raw[4 : 4+n]); err == nil {
				byType[m.Type] = append(byType[m.Type], m)
			}
			raw = raw[4+n:]
		}
	}
	for _, samples := range [][]simnet.Message{pbft.WireSamples(), txn.WireSamples(), query.WireSamples()} {
		for _, m := range samples {
			if len(byType[m.Type]) == 0 {
				byType[m.Type] = []simnet.Message{m}
			}
		}
	}
	for typ, metric := range metricOf {
		msgs := byType[typ]
		if len(msgs) == 0 {
			continue // reported missing by the benchmark command
		}
		var encoded [][]byte
		for _, m := range msgs {
			b, err := wire.EncodeMessage(nil, m)
			if err != nil {
				panic(err)
			}
			encoded = append(encoded, b)
		}
		buf := make([]byte, 0, 1<<16)
		i := 0
		d, n := drive.Loop(func() {
			if _, err := wire.EncodeMessage(buf[:0], msgs[i%len(msgs)]); err != nil {
				panic(err)
			}
			i++
		})
		drive.Ns("wire.encode_ns."+metric, d, n)
		decode := func() {
			if _, err := wire.DecodeMessage(encoded[i%len(encoded)]); err != nil {
				panic(err)
			}
			i++
		}
		d, n = drive.Loop(decode)
		drive.Ns("wire.decode_ns."+metric, d, n)
		drive.Report("wire.decode_allocs."+metric, drive.Allocs(1000, decode), "count", 1000)
	}
}
