// Package drive is the timing loop the layer drives under
// benchmark/drives share. A drive calls one layer's public functions
// directly and prints one line per metric, "name value unit n", which
// the benchmark command parses.
package drive

import (
	"flag"
	"fmt"
	"runtime"
	"time"
)

var (
	budget = flag.Duration("budget", time.Second, "time each timed loop runs for")
	// Dir is a scratch directory the drive may write in.
	Dir = flag.String("dir", ".", "scratch directory")
)

// Full-length loops also run at least this many iterations, so a slow
// operation (an fsync) still has a sample worth reading.
const minIters = 1000

// Loop calls op repeatedly for the budget and returns the mean time per
// call, in nanoseconds, and the number of calls. A loop at the full
// one-second budget also runs until it has minIters calls, up to five
// budgets.
func Loop(op func()) (nsPerOp float64, n int) {
	op() // first call pays lazy set-up
	start := time.Now()
	for {
		op()
		n++
		if n%16 != 0 {
			continue
		}
		el := time.Since(start)
		if el >= *budget && (n >= minIters || *budget < time.Second || el >= 5**budget) {
			return float64(el) / float64(n), n
		}
	}
}

// Allocs reports heap allocations per call of op over n calls.
func Allocs(n int, op func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// Report prints one metric line.
func Report(name string, v float64, unit string, n int) {
	fmt.Printf("%s %.9g %s %d\n", name, v, unit, n)
}

// Ns reports a per-call time in nanoseconds; Us in microseconds.
func Ns(name string, ns float64, n int) { Report(name, ns, "ns", n) }
func Us(name string, ns float64, n int) { Report(name, ns/1e3, "us", n) }
