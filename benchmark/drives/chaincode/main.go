// Command drive-chaincode times the four chaincode invocations the
// workloads execute, through the shard registry, on a 20 000-account
// state.
package main

import (
	"flag"
	"strconv"
	"time"

	"repro/benchmark/drives/drive"
	"repro/internal/chain"
	"repro/internal/core"
)

const accounts = 20000

func acc(i int) string { return "a" + strconv.Itoa(i%accounts) }

func main() {
	flag.Parse()
	reg := core.ShardRegistry()
	st := chain.NewStore()
	var id uint64
	exec := func(cc, fn string, args ...string) {
		id++
		if res := reg.Execute(st, chain.Tx{ID: id, Chaincode: cc, Fn: fn, Args: args}); !res.OK() {
			panic(cc + "." + fn + ": " + res.Err.Error())
		}
	}
	for i := 0; i < accounts; i++ {
		exec("smallbank-sharded", "create", acc(i), "1000000", "0")
	}
	value := string(make([]byte, 64))

	i := 0
	d, n := drive.Loop(func() { exec("kvstore", "put", "k_"+acc(i), value); i++ })
	drive.Ns("chaincode.drive_exec_ns.put", d, n)
	d, n = drive.Loop(func() { exec("smallbank-sharded", "query", acc(i)); i++ })
	drive.Ns("chaincode.drive_exec_ns.query", d, n)

	// Prepare then commit the same transaction, timing each half.
	var prep, commit time.Duration
	rounds := 0
	drive.Loop(func() {
		txid := "t" + strconv.Itoa(i)
		t0 := time.Now()
		exec("smallbank-sharded", "preparePayment", txid, acc(i), "-1")
		t1 := time.Now()
		exec("smallbank-sharded", "commitPayment", txid)
		prep += t1.Sub(t0)
		commit += time.Since(t1)
		rounds++
		i++
	})
	drive.Ns("chaincode.drive_exec_ns.preparePayment", float64(prep)/float64(rounds), rounds)
	drive.Ns("chaincode.drive_exec_ns.commitPayment", float64(commit)/float64(rounds), rounds)
}
