package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is the gated set: every workload reports all of them from an
// untraced interval, and each may worsen by at most its bound.
var endToEnd = []metricDef{
	{"allocs_per_msg", "1/msg", "lower", 0.10},
	{"rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// nTimings is how many leading perLayer entries are the end-to-end
// timings. They are what a user of the gateway sees first, and every
// workload reports them from the same untraced interval, but they are not
// gated: on the reference host, whose speed moves by a quarter for
// minutes at a time, identical code cannot hold them within the 25 % a
// bound may be. -selfcheck prints them beside the gated ones.
const nTimings = 4

// perLayer is everything reported without a bound: the end-to-end timings
// and the numbers that explain them layer by layer. A layer a workload
// does not run reports 0.
var perLayer = []metricDef{
	{Name: "msgs_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "lat_p90_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_msg", Unit: "us", Better: "lower"},

	{Name: "workload.pool_gen_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.gateway_new_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.warmup_ms", Unit: "ms", Better: "lower"},

	{Name: "httpmsg.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "httpmsg.parse_allocs", Unit: "1/call", Better: "lower"},
	{Name: "httpmsg.format_ns", Unit: "ns", Better: "lower"},

	{Name: "xmldom.tokenize_ns", Unit: "ns", Better: "lower"},
	{Name: "xmldom.tokenize_mb_per_sec", Unit: "MB/s", Better: "higher"},
	{Name: "xmldom.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "xmldom.parse_allocs", Unit: "1/call", Better: "lower"},
	{Name: "xmldom.parse_bytes", Unit: "B/call", Better: "lower"},

	{Name: "xpath.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "xpath.eval_allocs", Unit: "1/call", Better: "lower"},
	{Name: "xpath.eval_bytes", Unit: "B/call", Better: "lower"},

	{Name: "xsd.validate_ns", Unit: "ns", Better: "lower"},
	{Name: "xsd.validate_allocs", Unit: "1/call", Better: "lower"},
	{Name: "xsd.invalid_share", Unit: "share", Better: "lower"},

	{Name: "xj.translate_ns", Unit: "ns", Better: "lower"},
	{Name: "xj.translate_allocs", Unit: "1/call", Better: "lower"},
	{Name: "xj.out_bytes", Unit: "B", Better: "lower"},

	{Name: "gateway.process_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "gateway.residual_us", Unit: "us", Better: "lower"},
	{Name: "gateway.residual_share", Unit: "share", Better: "lower"},

	{Name: "gateway.messages", Unit: "count", Better: "higher"},
	{Name: "gateway.shed", Unit: "count", Better: "lower"},
	{Name: "gateway.parse_errors", Unit: "count", Better: "lower"},
	{Name: "gateway.upstream_errors", Unit: "count", Better: "lower"},
	{Name: "gateway.idle_timeouts", Unit: "count", Better: "lower"},
	{Name: "gateway.bytes_in_per_msg", Unit: "B/msg", Better: "lower"},
	{Name: "gateway.bytes_out_per_msg", Unit: "B/msg", Better: "lower"},

	{Name: "upstream.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "upstream.forwarded", Unit: "count", Better: "higher"},
	{Name: "upstream.pool_hit_share", Unit: "share", Better: "higher"},
	{Name: "upstream.retries", Unit: "count", Better: "lower"},
	{Name: "upstream.failures", Unit: "count", Better: "lower"},
	{Name: "backend.served", Unit: "count", Better: "higher"},

	{Name: "runtime.alloc_bytes_per_msg", Unit: "B/msg", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kmsg", Unit: "1/kmsg", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "runtime.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},

	{Name: "client.lat_samples", Unit: "count", Better: "higher"},
	{Name: "client.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.lat_max_us", Unit: "us", Better: "lower"},
	{Name: "client.sched_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.sched_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.late_share", Unit: "share", Better: "lower"},
	{Name: "client.window_rate_cv", Unit: "share", Better: "lower"},
	{Name: "client.payload_mb_per_sec", Unit: "MB/s", Better: "higher"},

	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
