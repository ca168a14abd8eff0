// Command drive-chain times chain.Store on a 20 000-key state: applying
// a 100-key write set and sealing it, point reads, a full ordered
// iteration of a sealed view, and the same iteration while another
// goroutine applies and seals.
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"repro/benchmark/drives/drive"
	"repro/internal/chain"
)

const (
	keys     = 20000
	writeSet = 100
)

func key(i int) string { return fmt.Sprintf("c_a%05d", i) }

func main() {
	flag.Parse()
	st := chain.NewStore()
	for base := 0; base < keys; base += writeSet {
		ws := make(chain.WriteSet, writeSet)
		for i := range ws {
			ws[i] = chain.Write{Key: key(base + i), Value: []byte("1000000")}
		}
		st.Apply(ws)
	}
	st.Seal()

	ws := make(chain.WriteSet, writeSet)
	next := 0
	applySeal := func() {
		for i := range ws {
			ws[i] = chain.Write{Key: key((next + i*197) % keys), Value: []byte("999999")}
		}
		next++
		st.Apply(ws)
		st.Seal()
	}
	d, n := drive.Loop(applySeal)
	drive.Us("chain.drive_apply_seal_us", d, n)

	i := 0
	d, n = drive.Loop(func() {
		if _, ok := st.Get(key(i % keys)); !ok {
			panic("chain: seeded key missing")
		}
		i++
	})
	drive.Ns("chain.drive_get_ns", d, n)

	scan := func() int {
		h, _ := st.LatestSealed()
		r, err := st.ReaderAt(h)
		if err != nil {
			panic(err)
		}
		rows := 0
		it := r.Iter("", "")
		for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
			rows++
		}
		if rows != keys {
			panic(fmt.Sprintf("chain: a sealed view held %d rows, want %d", rows, keys))
		}
		return rows
	}
	d, n = drive.Loop(func() { scan() })
	drive.Report("chain.drive_iter_rows_per_s", keys/(d/1e9), "1/s", n)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				applySeal()
				time.Sleep(200 * time.Microsecond) // a block every few hundred microseconds, as under load
			}
		}
	}()
	d, n = drive.Loop(func() { scan() })
	close(stop)
	wg.Wait()
	drive.Report("chain.drive_reader_under_write_rows_per_s", keys/(d/1e9), "1/s", n)
}
