package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/upstream"
)

// window is the length of the equal windows the measured interval is cut
// into. Throughput, CPU per message and the latency quantiles are taken
// per window, and the reported value is the mean over the best tenth of
// the windows (see best).
const window = 100 * time.Millisecond

// env is one workload's live system: the pool, the gateway, its
// backends and the client connections, all in this process.
type env struct {
	sp       *spec
	pool     []poolMsg
	batches  []batch
	srv      *gateway.Server
	backends map[string]*upstream.BackendServer // by route; empty in place
	addrs    map[string]string                  // by route; nil in place
	conns    []*conn

	// Set-up stage timings, milliseconds.
	poolGenMS, gatewayNewMS, dialMS, warmupMS float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warmUp is how long the children warm a workload up before the set-up
// clock stops. A fixed time, not a fixed message count: setup_s is gated,
// and a count would tie it to the host's speed of the moment (the same
// set-up read 1.08 s and 1.43 s an hour apart); with a fixed warm-up it
// moves only with the set-up work itself.
const warmUp = 600 * time.Millisecond

// setUp builds everything a workload needs and runs it closed-loop for
// warm, so pools, frames and the page cache are in steady state when it
// returns.
func setUp(sp *spec, seed uint64, warm time.Duration) (e *env, err error) {
	e = &env{sp: sp, backends: map[string]*upstream.BackendServer{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	t := time.Now()
	if e.pool, err = buildPool(sp, seed); err != nil {
		return e, err
	}
	e.batches = buildBatches(e.pool, sp.window)
	e.poolGenMS = ms(time.Since(t))

	t = time.Now()
	var cfg gateway.Config
	if sp.forward {
		e.addrs = map[string]string{}
		for _, route := range []string{"order", "error"} {
			be, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: route})
			if err != nil {
				return e, err
			}
			e.backends[route] = be
			e.addrs[route] = be.Addr().String()
		}
		cfg.Upstream = upstream.Config{Order: e.addrs["order"], Error: e.addrs["error"]}
	}
	if e.srv, err = gateway.New(cfg); err != nil {
		return e, err
	}
	if err = e.srv.Start("127.0.0.1:0"); err != nil {
		return e, err
	}
	e.gatewayNewMS = ms(time.Since(t))

	t = time.Now()
	for i := 0; i < nConns; i++ {
		cn, err := dialConn(e.srv.Addr().String(), e.addrs)
		if err != nil {
			return e, err
		}
		e.conns = append(e.conns, cn)
	}
	e.dialMS = ms(time.Since(t))

	t = time.Now()
	e.eachConn(func(i int, cn *conn) {
		cn.runClosed(e.batches, i, t.Add(warm))
	})
	e.warmupMS = ms(time.Since(t))
	for _, cn := range e.conns {
		if cn.failed > 0 {
			return e, fmt.Errorf("warm-up: %d failed: %s", cn.failed, cn.firstErr)
		}
	}
	return e, nil
}

// eachConn runs fn on every connection in its own goroutine and waits.
func (e *env) eachConn(fn func(i int, cn *conn)) {
	var wg sync.WaitGroup
	for i, cn := range e.conns {
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			fn(i, cn)
		}(i, cn)
	}
	wg.Wait()
}

func (e *env) close() {
	for _, cn := range e.conns {
		cn.c.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
	}
	for _, be := range e.backends {
		be.Close()
	}
}

// counts is every counter read at the two quiescent boundaries of the
// measured interval (after warm-up, after the last response).
type counts struct {
	gw     gateway.Snapshot
	served uint64 // Σ backend requests answered
	mem    runtime.MemStats
	fwd    upstream.Snapshot // summed over routes; only the counters
}

func (e *env) readCounts() counts {
	var c counts
	c.gw = e.srv.Snapshot()
	for _, be := range e.backends {
		c.served += be.Requests.Load()
	}
	for _, s := range c.gw.Upstream {
		c.fwd.Forwarded += s.Forwarded
		c.fwd.Retries += s.Retries
		c.fwd.Failures += s.Failures
		c.fwd.Dials += s.Dials
		c.fwd.PoolHits += s.PoolHits
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// mark is one window boundary.
type mark struct {
	t   time.Time
	cpu time.Duration
	ok  int64
}

func (e *env) mark() mark {
	m := mark{t: time.Now(), cpu: cpuTime()}
	for _, cn := range e.conns {
		m.ok += cn.ok.Load()
	}
	return m
}

// measured is what one measured interval yields.
type measured struct {
	attempted, failed int64
	failures          []string
	endToEnd          map[string]float64 // all but setup_s
	perLayer          map[string]float64 // the interval's timings, and the counters read at its boundaries
}

// measure runs the workload for d and checks every response and the
// end-of-run conservation laws.
func (e *env) measure(d time.Duration) measured {
	sp := e.sp
	for _, cn := range e.conns {
		cn.reset(time.Now().Add(window))
	}
	before := e.readCounts()
	nWindows := int(max(d/window, 1))
	win := d / time.Duration(nWindows)
	start := time.Now()
	deadline := start.Add(d)

	marks := make([]mark, 1, nWindows+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.eachConn(func(i int, cn *conn) {
			if sp.period > 0 {
				// Stagger the connections evenly inside one period.
				off := time.Duration(i) * sp.period / nConns
				tk, err := newTicker(time.Until(start.Add(off)), sp.period)
				if err != nil {
					cn.fail(1, err.Error())
					return
				}
				defer tk.close()
				cn.runPaced(e.batches, i, tk, sp.period, deadline)
			} else {
				cn.runClosed(e.batches, i, deadline)
			}
		})
	}()
	marks[0] = e.mark()
	for w := 1; w <= nWindows; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * win)))
		marks = append(marks, e.mark())
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := e.readCounts()
	rss := vmHWMmb()

	var res measured
	var lat, lag hist
	var p50s, p90s []float64
	var ok, late, bytesOut int64
	for _, cn := range e.conns {
		res.attempted += cn.sent
		res.failed += cn.failed
		if cn.firstErr != "" {
			res.failures = append(res.failures, cn.firstErr)
		}
		ok += cn.ok.Load()
		late += cn.late
		bytesOut += cn.bytesOut
		lat.merge(&cn.lat)
		lag.merge(&cn.lag)
		p50s = append(p50s, cn.p50s...)
		p90s = append(p90s, cn.p90s...)
	}

	// Conservation: every client OK is a gateway message, every gateway
	// forward is a backend serve, and nothing was shed or refused.
	gwMsgs := int64(after.gw.Messages - before.gw.Messages)
	shed := int64(after.gw.Shed - before.gw.Shed)
	parseErrs := int64(after.gw.ParseErrors - before.gw.ParseErrors)
	upErrs := int64(after.gw.UpstreamErrs - before.gw.UpstreamErrs)
	idle := int64(after.gw.IdleTimeouts - before.gw.IdleTimeouts)
	forwarded := int64(after.fwd.Forwarded - before.fwd.Forwarded)
	served := int64(after.served - before.served)
	hits := after.fwd.PoolHits - before.fwd.PoolHits
	violate := func(format string, args ...any) {
		res.failed++
		res.failures = append(res.failures, "conservation: "+fmt.Sprintf(format, args...))
	}
	if gwMsgs != ok {
		violate("client saw %d correct responses, gateway counted %d messages", ok, gwMsgs)
	}
	if shed != 0 || parseErrs != 0 || upErrs != 0 {
		violate("gateway shed %d, parse errors %d, upstream errors %d", shed, parseErrs, upErrs)
	}
	if forwarded != served || sp.forward && forwarded != ok {
		violate("gateway forwarded %d, backends served %d, client saw %d", forwarded, served, ok)
	}

	rates := make([]float64, 0, nWindows)
	cpus := make([]float64, 0, nWindows)
	for w := 1; w < len(marks); w++ {
		n := float64(marks[w].ok - marks[w-1].ok)
		rates = append(rates, n/marks[w].t.Sub(marks[w-1].t).Seconds())
		if n > 0 {
			cpus = append(cpus, float64((marks[w].cpu-marks[w-1].cpu).Microseconds())/n)
		}
	}
	perMsg := func(v float64) float64 { return ratio(v, float64(ok)) }
	us := func(ns float64) float64 { return ns / 1e3 }
	mallocs := float64(after.mem.Mallocs - before.mem.Mallocs)

	rate, cpu := best(rates, true), best(cpus, false)
	if sp.period > 0 {
		// The offered rate is fixed: a window's count says only when the
		// generator caught up after a stall, so the open loop reports what
		// was delivered, and what it cost, over the whole interval.
		rate = float64(ok) / elapsed.Seconds()
		cpu = perMsg(float64((marks[len(marks)-1].cpu - marks[0].cpu).Microseconds()))
	}
	res.endToEnd = map[string]float64{
		"allocs_per_msg": perMsg(mallocs),
		"rss_mb":         rss,
	}
	res.perLayer = map[string]float64{
		"msgs_per_sec":   rate,
		"lat_p50_us":     us(best(p50s, false)),
		"lat_p90_us":     us(best(p90s, false)),
		"cpu_us_per_msg": cpu,

		"workload.pool_gen_ms": e.poolGenMS,
		"setup.gateway_new_ms": e.gatewayNewMS,
		"setup.dial_ms":        e.dialMS,
		"setup.warmup_ms":      e.warmupMS,

		"gateway.messages":          float64(gwMsgs),
		"gateway.shed":              float64(shed),
		"gateway.parse_errors":      float64(parseErrs),
		"gateway.upstream_errors":   float64(upErrs),
		"gateway.idle_timeouts":     float64(idle),
		"gateway.bytes_in_per_msg":  perMsg(float64(after.gw.BytesIn - before.gw.BytesIn)),
		"gateway.bytes_out_per_msg": perMsg(float64(after.gw.BytesOut - before.gw.BytesOut)),

		"upstream.forwarded":      float64(forwarded),
		"upstream.pool_hit_share": ratio(float64(hits), float64(hits+after.fwd.Dials-before.fwd.Dials)),
		"upstream.retries":        float64(after.fwd.Retries - before.fwd.Retries),
		"upstream.failures":       float64(after.fwd.Failures - before.fwd.Failures),
		"backend.served":          float64(served),

		"runtime.alloc_bytes_per_msg": perMsg(float64(after.mem.TotalAlloc - before.mem.TotalAlloc)),
		"runtime.gc_cycles_per_kmsg":  perMsg(float64(after.mem.NumGC-before.mem.NumGC)) * 1e3,
		"runtime.gc_pause_us_per_msg": perMsg(us(float64(after.mem.PauseTotalNs - before.mem.PauseTotalNs))),
		"runtime.heap_inuse_mb":       float64(after.mem.HeapInuse) / (1 << 20),
		"runtime.goroutines":          float64(runtime.NumGoroutine()),
		"client.lat_samples":          float64(lat.n),
		"client.lat_p99_us":           us(lat.quantile(0.99)),
		"client.lat_p999_us":          us(lat.quantile(0.999)),
		"client.lat_max_us":           us(float64(lat.max)),
		"client.sched_lag_p50_us":     us(lag.quantile(0.50)),
		"client.sched_lag_p99_us":     us(lag.quantile(0.99)),
		"client.late_share":           ratio(float64(late), float64(res.attempted)),
		"client.window_rate_cv":       cv(rates),
		"client.payload_mb_per_sec":   float64(bytesOut) / 1e6 / elapsed.Seconds(),
	}
	return res
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmHWMmb is the process's peak resident set in MB (Linux VmHWM).
func vmHWMmb() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
