// Quickstart: build a simulated AON device, push a handful of XML messages
// through the CBR use case, and read the on-chip performance counters —
// the five-minute tour of the reproduction's public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	aon "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/sim/sched"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the tour, printing to w.
func run(w io.Writer) error {
	// 1. Pick a system under test from the paper's Table 2. Here: the
	// dual-core Pentium M.
	m := machine.New(machine.TwoCPm, machine.Options{})
	fmt.Fprintln(w, "machine:", m)

	// 2. Wrap it in the OS/scheduler layer and wire a NIC with gigabit
	// links, like the paper's testbed.
	e := sched.NewEngine(m)
	rx := netsim.NewLink(m, 1e9)
	tx := netsim.NewLink(m, 1e9)
	nic := netsim.NewNIC(e, e.Space.NewProcess(), rx, tx)

	// 3. Start the XML server application in Content-Based Routing mode:
	// each HTTP POST's body is parsed and //quantity/text() decides the
	// destination endpoint.
	server, err := aon.New(e, nic, aon.Config{UseCase: workload.CBR})
	if err != nil {
		return err
	}
	server.SpawnThreads()

	// 4. Generate load: a closed-loop client keeping 16 messages in
	// flight over the receive link.
	client := aon.NewClient(server, workload.CBR, 16)
	client.Start()

	// 5. Run until 200 messages have been proxied.
	m.ResetWindow()
	end := e.Run(func(*sched.Engine) bool { return server.Stats.Messages >= 200 })
	m.CloseWindow(end)

	// 6. Read the results: application stats and the system-wide counters
	// the paper's VTune methodology reports.
	secs := m.Seconds(end)
	fmt.Fprintf(w, "processed %d messages in %.2f simulated ms (%.0f Mbps)\n",
		server.Stats.Messages, secs*1e3,
		float64(server.Stats.BytesIn)*8/secs/1e6)
	fmt.Fprintf(w, "routing: %d matched //quantity/text()=1, %d to the error endpoint\n",
		server.Stats.RoutedMatch, server.Stats.RoutedError)

	sys := m.SystemCounters()
	fmt.Fprintln(w, "\nsystem-wide performance counters:")
	fmt.Fprint(w, sys.Format())
	fmt.Fprintln(w, "derived metrics:", counters.Derive(sys))
	return nil
}
