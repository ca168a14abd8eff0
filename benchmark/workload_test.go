package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 1, 5000), generate(w, 1, 5000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different op streams", w.name)
		}
		if c := generate(w, 2, 5000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
	}
}

func TestOpsStayInsideTheirPools(t *testing.T) {
	shardOf := func(i int32) int { return core.ShardOfKey(accountName(i), numShards) }
	for _, w := range workloads {
		kinds := map[opKind]int{}
		for _, o := range generate(w, 7, 20000) {
			kinds[o.kind]++
			if o.a < 0 || o.a >= population || o.b < 0 || o.b >= population {
				t.Fatalf("%s: op %+v names a key outside the seeded population", w.name, o)
			}
			if o.kind == opPay {
				if shardOf(o.a) == shardOf(o.b) {
					t.Fatalf("%s: payment %+v is not cross-shard", w.name, o)
				}
				if o.arg < 1 || o.arg > maxAmount {
					t.Fatalf("%s: payment amount %d outside [1, %d]", w.name, o.arg, maxAmount)
				}
			}
		}
		switch w.name {
		case "single_write":
			if kinds[opPut] != 20000 {
				t.Errorf("single_write mix: %v", kinds)
			}
		case "cross_uniform", "read_beside_write":
			if kinds[opPay] != 20000 {
				t.Errorf("%s mix: %v", w.name, kinds)
			}
		case "mixed_hot":
			// 30% / 35% / 35%, within two points on 20 000 draws.
			for kind, want := range map[opKind]float64{opPay: 0.30, opQuery: 0.35, opPut: 0.35} {
				if got := float64(kinds[kind]) / 20000; got < want-0.02 || got > want+0.02 {
					t.Errorf("mixed_hot: %v share %.3f, want %.2f", kind, got, want)
				}
			}
		}
	}
}

func TestZipfIsSkewedPerShard(t *testing.T) {
	w, _ := workloadByName("mixed_hot")
	hits := map[int32]int{}
	ops := generate(w, 3, 20000)
	for _, o := range ops {
		hits[o.a]++
	}
	hottest := 0
	for _, n := range hits {
		if n > hottest {
			hottest = n
		}
	}
	// Uniform draws over 20 000 accounts would put about one op on each;
	// Zipf(1.1, 8) puts a few percent of all ops on the hottest account.
	if hottest < len(ops)/100 {
		t.Errorf("hottest account has %d of %d ops: not skewed", hottest, len(ops))
	}
}

func TestPutValueAndKeys(t *testing.T) {
	for _, salt := range []uint32{0, 1, 1 << 31, 0xFFFFFFFF} {
		if v := putValue(salt); len(v) != valueBytes {
			t.Errorf("putValue(%d) has %d bytes, want %d", salt, len(v), valueBytes)
		}
	}
	if putValue(1) == putValue(2) {
		t.Error("different salts gave the same value")
	}
	kv, _ := workloadByName("single_write")
	hot, _ := workloadByName("mixed_hot")
	if got := putKey(kv, 12); got != "k_12" {
		t.Errorf("kvstore put key = %q", got)
	}
	if got := putKey(hot, 12); got != "k_a12" {
		t.Errorf("account-keyed put key = %q", got)
	}
}
