// Command drive-storage times one WAL append of a ~1 KiB block record
// under each fsync policy, on the filesystem the benchmark's clusters
// journal to.
package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"

	"repro/benchmark/drives/drive"
	"repro/internal/chain"
	"repro/internal/storage"
)

func main() {
	flag.Parse()
	// Ten puts with 64-byte values and their envelope come to about 1 KiB.
	var txs []chain.Tx
	for i := 0; i < 10; i++ {
		txs = append(txs, chain.Tx{ID: uint64(i), Chaincode: "kvstore", Fn: "put",
			Args: []string{"k_12345", strings.Repeat("v", 64)}})
	}
	for _, mode := range []storage.FsyncMode{storage.FsyncOff, storage.FsyncInterval, storage.FsyncAlways} {
		dir := filepath.Join(*drive.Dir, "wal-"+string(mode))
		d, err := storage.OpenDisk(dir, storage.DiskOptions{Fsync: mode})
		if err != nil {
			panic(err)
		}
		var seq uint64
		per, n := drive.Loop(func() {
			seq++
			blk := &chain.Block{Header: chain.Header{Height: seq}, Txs: txs}
			if err := d.Append(storage.Record{Kind: storage.KindBlock, Seq: seq, Block: blk}); err != nil {
				panic(err)
			}
		})
		if err := d.Close(); err != nil {
			panic(err)
		}
		os.RemoveAll(dir)
		drive.Us("storage.drive_append_us."+string(mode), per, n)
	}
}
