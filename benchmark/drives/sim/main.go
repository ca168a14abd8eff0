// Command drive-sim times the discrete-event engine every live node's
// loop runs on: schedule one event and run it.
package main

import (
	"flag"
	"time"

	"repro/benchmark/drives/drive"
	"repro/internal/sim"
)

func main() {
	flag.Parse()
	e := sim.NewEngine(1)
	ran := 0
	fn := func() { ran++ }
	d, n := drive.Loop(func() {
		e.Schedule(time.Microsecond, fn)
		e.Run(e.Now().Add(time.Microsecond))
	})
	if ran < n {
		panic("sim: scheduled events did not run")
	}
	drive.Ns("sim.drive_schedule_run_ns", d, n)
}
