package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
)

// Fixed deployment and workload constants. Rates and windows are
// constants, not auto-scaled: a change to the program must not change
// the load it is offered.
const (
	numShards  = 2
	population = 20000   // pre-seeded keys or accounts per workload
	balance    = 1000000 // initial checking balance per account
	valueBytes = 64      // kvstore put value size
	window     = 64      // closed-loop window (phase C)
	seedWindow = 256     // seeding window during set-up
	pageLimit  = 256     // scan page size
	zipfS      = 1.1     // mixed_hot skew
	zipfV      = 8
	maxAmount  = 50
	opDeadline = 10 * time.Second
	warmup     = 1500 * time.Millisecond // excluded at the head of every phase
)

type opKind uint8

const (
	opPut   opKind = iota // single-shard kvstore put
	opQuery               // single-shard smallbank-sharded query
	opPay                 // cross-shard payment through 2PC
)

func (k opKind) String() string {
	return [...]string{"put", "query", "pay"}[k]
}

// op is one generated input. The program under test sees only the
// transaction built from it.
type op struct {
	kind opKind
	a, b int32  // put: key index; query: account; pay: from, to
	arg  uint32 // put: value salt; pay: amount
}

// workload is one named traffic mix. Every write workload runs an
// open-loop phase L (latency at a fixed rate) and then a closed-loop
// phase C (throughput at a fixed window); read_beside_write instead runs
// phase L alone, for the whole run, beside one closed-loop reader.
type workload struct {
	name     string
	why      string
	accounts bool    // seed SmallBank accounts (else kvstore keys)
	rate     float64 // phase L offered rate, tx/s
	shareL   float64 // share of the measured seconds spent in phase L
	reader   bool
	gen      func(p *pools, r *rand.Rand) op
}

var workloads = []workload{
	{
		name: "single_write",
		why:  "uniform single-shard kvstore puts: one committee's whole write path (pbft, wire, transport, WAL, chaincode, Seal) with txn, the reference committee and query idle",
		rate: 2000, shareL: 0.4,
		gen: func(p *pools, r *rand.Rand) op {
			return op{kind: opPut, a: int32(r.Intn(population)), arg: r.Uint32()}
		},
	},
	{
		name: "cross_uniform", accounts: true,
		why:  "uniform cross-shard payments: 2PC on the reference committee plus prepare and commit rounds on two shards, so txn waits and three serial consensus+journal rounds dominate",
		rate: 200, shareL: 0.5,
		gen: func(p *pools, r *rand.Rand) op { return p.pay(r, p.uniform) },
	},
	{
		name: "mixed_hot", accounts: true,
		why:  "30% payments, 35% queries, 35% puts over Zipf(1.1) accounts: 2PL no-wait conflicts, aborts and parexec conflict groups; longer lock-hold shows as lower goodput",
		rate: 400, shareL: 0.4,
		gen: func(p *pools, r *rand.Rand) op {
			switch x := r.Float64(); {
			case x < 0.30:
				return p.pay(r, p.zipf)
			case x < 0.65:
				return op{kind: opQuery, a: p.zipf(r, r.Intn(numShards))}
			default:
				return op{kind: opPut, a: p.zipf(r, r.Intn(numShards)), arg: r.Uint32()}
			}
		},
	},
	{
		name: "read_beside_write", accounts: true, reader: true,
		why:  "cross_uniform's writer at the same 200 tx/s beside one reader alternating conservation sweeps and full ordered scans: query and chain MVCC readers share the store with COW+Seal writers",
		rate: 200, shareL: 1,
		gen: func(p *pools, r *rand.Rand) op { return p.pay(r, p.uniform) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pools groups the seeded accounts by owning shard, so the generator can
// build guaranteed cross-shard pairs and draw skewed accounts per shard.
type pools struct {
	byShard [numShards][]int32
	zipfs   [numShards]*rand.Zipf
}

func accountName(i int32) string { return "a" + strconv.Itoa(int(i)) }

// putKey is the row a put writes: "k_<i>" on the kvstore workload,
// "k_a<i>" when keyed by account. Singles never write c_ balances, so
// conservation stays exact while single-shard writes ignore 2PL locks.
func putKey(w workload, i int32) string {
	if w.accounts {
		return "k_" + accountName(i)
	}
	return "k_" + strconv.Itoa(int(i))
}

func newPools(r *rand.Rand) *pools {
	p := &pools{}
	for i := int32(0); i < population; i++ {
		s := core.ShardOfKey(accountName(i), numShards)
		p.byShard[s] = append(p.byShard[s], i)
	}
	for s := range p.byShard {
		if len(p.byShard[s]) == 0 {
			panic(fmt.Sprintf("no account hashes to shard %d", s))
		}
		p.zipfs[s] = rand.NewZipf(r, zipfS, zipfV, uint64(len(p.byShard[s])-1))
	}
	return p
}

func (p *pools) uniform(r *rand.Rand, shard int) int32 {
	return p.byShard[shard][r.Intn(len(p.byShard[shard]))]
}

func (p *pools) zipf(_ *rand.Rand, shard int) int32 {
	return p.byShard[shard][p.zipfs[shard].Uint64()]
}

func (p *pools) pay(r *rand.Rand, pick func(*rand.Rand, int) int32) op {
	from := r.Intn(numShards)
	to := (from + 1 + r.Intn(numShards-1)) % numShards
	return op{kind: opPay, a: pick(r, from), b: pick(r, to), arg: uint32(1 + r.Intn(maxAmount))}
}

// generate builds the whole op stream for one run up front: n ops drawn
// from the workload's generator, a pure function of (workload, seed).
func generate(w workload, seed int64, n int) []op {
	r := rand.New(rand.NewSource(seed))
	p := newPools(r)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.gen(p, r)
	}
	return ops
}

// putValue expands a put's salt to the fixed value size.
func putValue(salt uint32) string {
	b := make([]byte, 0, valueBytes)
	for len(b) < valueBytes {
		b = strconv.AppendUint(b, uint64(salt)|1<<32, 16)
	}
	return string(b[:valueBytes])
}
