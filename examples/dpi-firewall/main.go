// dpi-firewall demonstrates the future-work extensions (paper Section 6):
// deep packet inspection with a custom signature set and HMAC-SHA1 message
// authentication, both as plain libraries and under simulation on the
// dual-core machine.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	aon "repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netsim"
	"repro/internal/perf/machine"
	"repro/internal/sim/sched"
	"repro/internal/wcrypto"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the demonstration, printing to w.
func run(w io.Writer) error {
	// 1. Library-level DPI: build a matcher, scan payloads.
	m := dpi.MustNewMatcher([]string{"<!ENTITY", "javascript:", "DROP TABLE"})
	fmt.Fprintf(w, "signature automaton: %d states, %d simulated KB\n",
		m.States(), m.SimBytes()>>10)

	payloads := map[string][]byte{
		"clean order":    workload.SOAPMessage(4),
		"xxe attempt":    []byte(`<?xml version="1.0"?><!DOCTYPE x [<!ENTITY e SYSTEM "file:///etc/passwd">]><x>&e;</x>`),
		"script smuggle": []byte(`<note>click <a href="javascript:boom()">here</a></note>`),
	}
	for name, p := range payloads {
		matches := m.Scan(p)
		verdict := "PASS"
		if len(matches) > 0 {
			verdict = fmt.Sprintf("BLOCK (%d signature hits)", len(matches))
		}
		fmt.Fprintf(w, "  %-15s %s\n", name, verdict)
	}

	// 2. Library-level message authentication.
	body := workload.SOAPMessage(9)
	mac := wcrypto.HMAC(workload.AuthKey, body, nil, 0)
	fmt.Fprintf(w, "\nHMAC-SHA1 of message 9: %x...\n", mac[:8])
	fmt.Fprintf(w, "SHA-1 self-check: %s\n", wcrypto.HexSum1([]byte("abc")))

	// 3. The same operations as AON use cases under full simulation.
	for _, uc := range workload.ExtendedUseCases {
		mach := machine.New(machine.TwoCPm, machine.Options{})
		e := sched.NewEngine(mach)
		nic := netsim.NewNIC(e, e.Space.NewProcess(),
			netsim.NewLink(mach, 1e9), netsim.NewLink(mach, 1e9))
		server, err := aon.New(e, nic, aon.Config{UseCase: uc})
		if err != nil {
			return err
		}
		server.SpawnThreads()
		aon.NewClient(server, uc, 16).Start()
		end := e.Run(func(*sched.Engine) bool { return server.Stats.Messages >= 120 })
		secs := mach.Seconds(end)
		fmt.Fprintf(w, "\n%s on 2CPm: %.0f msg/s (%.0f Mbps)\n",
			uc, float64(server.Stats.Messages)/secs,
			float64(server.Stats.BytesIn)*8/secs/1e6)
		switch st := server.Stats; uc {
		case workload.DPI:
			fmt.Fprintf(w, "  clean=%d quarantined=%d\n", st.CleanDPI, st.RoutedError)
		case workload.AUTH:
			fmt.Fprintf(w, "  authenticated=%d rejected=%d\n", st.AuthOK, st.RoutedError)
		default:
			fmt.Fprintf(w, "  translated=%d unprocessable=%d\n", st.Messages-st.RoutedError, st.RoutedError)
		}
	}
	return nil
}
