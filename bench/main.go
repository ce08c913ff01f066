// Command bench is the repository's benchmark: it drives the real
// internal/gateway server over loopback TCP from the same process with
// four workloads, checks every response, and reports seven end-to-end
// metrics per workload (three gated, four timings ungated) plus a
// per-layer ledger from a separate traced run. See README.md in this
// directory.
//
//	go run ./bench -seed 1                 every workload, full report as JSON
//	go run ./bench -selfcheck              the set twice; fail if they disagree
//	go run ./bench --workload fr-1k-sat --seed 7 --seconds 20 --trace 0
//	                                       one workload; last stdout line is
//	                                       {"correct","attempted","failed","metrics"}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setUps is how many times a workload is set up, each in a fresh child
// process, per reported setup_s (their median): one reading of a ~1.5 s
// set-up is not steady enough to gate.
const setUps = 3

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	selfcheck bool

	// Set by the parent on the children it spawns.
	child     bool
	setupOnly bool
	spawned   int64
}

// result is one workload's outcome, as a child process prints it.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Ledger    []ledgerRow        `json:"ledger,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line result the benchmark driver reads")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same messages")
	flag.IntVar(&o.seconds, "seconds", 30, "measured interval per workload, seconds")
	flag.IntVar(&o.trace, "trace", 1, "1: also do the traced run and report the per-layer metrics; with -workload, 0 prints the gated end-to-end metrics and 1 the ungated ones")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the span files (trace-<workload>.jsonl)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole set twice and fail if any gated metric differs by more than its bound")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	flag.Int64Var(&o.spawned, "spawned", 0, "internal: when the parent started this child, Unix ns")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		os.Exit(2)
	}

	var err error
	switch {
	case o.child:
		err = childMain(o)
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload != "":
		err = driverRun(o)
	default:
		_, err = fullRun(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain is one workload in a fresh process: set-up, the measured
// interval and, when asked, the traced run.
func childMain(o options) error {
	// Client, gateway and backends share this process; two Ps match the
	// two client connections and the gateway's default of one worker per
	// P, on this host and on a bigger one.
	runtime.GOMAXPROCS(2)
	sp, err := findSpec(o.workload)
	if err != nil {
		return err
	}
	e, err := setUp(sp, o.seed, warmUp)
	if err != nil {
		return err
	}
	defer e.close()
	res := result{Workload: sp.name, EndToEnd: map[string]float64{}}
	setupS := time.Since(time.Unix(0, o.spawned)).Seconds()
	if !o.setupOnly {
		m := e.measure(time.Duration(o.seconds) * time.Second)
		res.Attempted, res.Failed, res.Failures = m.attempted, m.failed, m.failures
		res.EndToEnd, res.PerLayer = m.endToEnd, m.perLayer
		if o.trace != 0 {
			tr, err := e.traceRun(o.out, tracedTrips)
			if err != nil {
				return err
			}
			for k, v := range tr.perLayer {
				res.PerLayer[k] = v
			}
			res.Ledger, res.SpanFile = tr.ledger, tr.spanFile
		}
	}
	res.EndToEnd["setup_s"] = setupS
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn re-executes this binary as a child for one workload and decodes
// the result it prints.
func spawn(o options, name string, setupOnly bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace), "-out", o.out,
		"-setup-only="+strconv.FormatBool(setupOnly),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// A child must not outlive a parent that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s: child: %w", name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s: child result: %w", name, err)
	}
	return res, nil
}

// runWorkload sets the workload up setUps times, measures it once, and
// reports the median set-up time.
func runWorkload(o options, name string) (result, error) {
	var setups []float64
	for i := 1; i < setUps; i++ {
		r, err := spawn(o, name, true)
		if err != nil {
			return r, err
		}
		setups = append(setups, r.EndToEnd["setup_s"])
	}
	res, err := spawn(o, name, false)
	if err != nil {
		return res, err
	}
	res.EndToEnd["setup_s"] = median(append(setups, res.EndToEnd["setup_s"]))
	return res, nil
}

// reading is a metric value with its unit, as printed.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func readings(defs []metricDef, values map[string]float64) (map[string]reading, error) {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", d.Name)
		}
		out[d.Name] = reading{v, d.Unit}
	}
	return out, nil
}

// driverRun is the benchmark driver's entry: one workload, and as the
// last line of standard output one JSON object with the end-to-end
// (-trace 0) or per-layer (-trace 1) metrics.
func driverRun(o options) error {
	if _, err := findSpec(o.workload); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, hostRecord())
	res, err := runWorkload(o, o.workload)
	if err != nil {
		return err
	}
	defs, values := endToEnd, res.EndToEnd
	if o.trace != 0 {
		defs, values = perLayer, res.PerLayer
		printLedger(os.Stderr, res)
	}
	metrics, err := readings(defs, values)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return failures([]result{res})
}

// failures turns failed operations into the run's error.
func failures(results []result) error {
	var msgs []string
	for _, r := range results {
		if r.Failed > 0 {
			msgs = append(msgs, fmt.Sprintf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, strings.Join(r.Failures, "; ")))
		}
	}
	if msgs != nil {
		return fmt.Errorf("%s", strings.Join(msgs, "\n"))
	}
	return nil
}

// fullRun runs every workload and writes the whole report as one JSON
// document to w; progress and the ledger tables go to standard error.
func fullRun(o options, w io.Writer) ([]result, error) {
	type workloadReport struct {
		Name      string             `json:"name"`
		Why       string             `json:"why"`
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Failures  []string           `json:"failures,omitempty"`
		EndToEnd  map[string]reading `json:"end_to_end"`
		PerLayer  map[string]reading `json:"per_layer,omitempty"`
		Ledger    []ledgerRow        `json:"ledger,omitempty"`
		SpanFile  string             `json:"span_file,omitempty"`
	}
	report := struct {
		Host      string           `json:"host"`
		Seed      uint64           `json:"seed"`
		Seconds   int              `json:"seconds"`
		Workloads []workloadReport `json:"workloads"`
	}{Host: hostRecord(), Seed: o.seed, Seconds: o.seconds}
	fmt.Fprintln(os.Stderr, report.Host)

	var results []result
	for i := range specs {
		sp := &specs[i]
		fmt.Fprintf(os.Stderr, "%s ...\n", sp.name)
		res, err := runWorkload(o, sp.name)
		if err != nil {
			return nil, err
		}
		wr := workloadReport{Name: sp.name, Why: sp.why, Correct: res.Failed == 0,
			Attempted: res.Attempted, Failed: res.Failed, Failures: res.Failures,
			Ledger: res.Ledger, SpanFile: res.SpanFile}
		if wr.EndToEnd, err = readings(endToEnd, res.EndToEnd); err != nil {
			return nil, err
		}
		ungated := perLayer[:nTimings] // without the traced run, only the timings
		if o.trace != 0 {
			ungated = perLayer
			printLedger(os.Stderr, res)
		}
		if wr.PerLayer, err = readings(ungated, res.PerLayer); err != nil {
			return nil, err
		}
		for _, d := range headline {
			fmt.Fprintf(os.Stderr, "  %-16s %12.4f %s\n", d.Name, res.value(d.Name), d.Unit)
		}
		report.Workloads = append(report.Workloads, wr)
		results = append(results, res)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return nil, err
	}
	return results, failures(results)
}

// headline is what the progress output and -selfcheck show per workload:
// the gated metrics, then the ungated end-to-end timings.
var headline = append(append([]metricDef(nil), endToEnd...), perLayer[:nTimings]...)

// value looks a headline metric up in a result.
func (r result) value(name string) float64 {
	if v, ok := r.EndToEnd[name]; ok {
		return v
	}
	return r.PerLayer[name]
}

// selfcheck runs the set twice back to back on the same code, prints
// every workload x headline metric, and fails if a gated one differs by
// more than its bound.
func selfcheck(o options) error {
	o.trace = 0
	a, err := fullRun(o, io.Discard)
	if err != nil {
		return err
	}
	b, err := fullRun(o, io.Discard)
	if err != nil {
		return err
	}
	over := 0
	fmt.Printf("%-18s %-16s %14s %14s %8s %s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, d := range headline {
			x, y := a[i].value(d.Name), b[i].value(d.Name)
			diff := math.Abs(y-x) / x
			bound := "ungated"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if diff > d.Bound {
					bound += "  OVER"
					over++
				}
			}
			fmt.Printf("%-18s %-16s %14.4f %14.4f %7.2f%% %s\n", a[i].Workload, d.Name, x, y, 100*diff, bound)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d readings of identical code differ by more than their bound", over)
	}
	return nil
}

// printLedger writes the layers-add-up table of a traced run.
func printLedger(w io.Writer, res result) {
	fmt.Fprintf(w, "%s ledger (median ns per message, share of the depth-1 round trip)\n", res.Workload)
	for _, r := range res.Ledger {
		fmt.Fprintf(w, "  %-4s %-24s %12.0f %6.1f%%\n", r.UseCase, r.Layer, r.NS, 100*r.Share)
	}
}

// hostRecord describes where the numbers were taken.
func hostRecord() string {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(b))
	}
	load1, _, _ := strings.Cut(read("/proc/loadavg"), " ")
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=2 (pinned) %s kernel=%s load1=%s loopback, single process",
		runtime.NumCPU(), runtime.Version(), read("/proc/sys/kernel/osrelease"), load1)
}
