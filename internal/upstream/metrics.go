package upstream

import (
	"sync/atomic"

	"repro/internal/lhist"
)

// metrics is one backend's counter set, folded into the gateway's /stats
// snapshot so the upstream half of a forwarded round trip is observable
// next to the gateway's own service times.
type metrics struct {
	Forwarded atomic.Uint64 // successful round trips
	Failures  atomic.Uint64 // failed round trips (dial or IO)
	Timeouts  atomic.Uint64 // failed round trips that were deadline expiries
	Dials     atomic.Uint64 // pool misses (new sockets)
	PoolHits  atomic.Uint64 // pool hits (reused sockets)
	Latency   lhist.Hist    // successful round-trip latency
}

// Snapshot is one backend's point-in-time JSON shape under the
// gateway's /stats "upstream" section.
type Snapshot struct {
	Addr      string         `json:"addr"`
	Forwarded uint64         `json:"forwarded"`
	Failures  uint64         `json:"failures"`
	Timeouts  uint64         `json:"timeouts"`
	Dials     uint64         `json:"dials_pool_miss"`
	PoolHits  uint64         `json:"pool_hits"`
	OpenConns int64          `json:"open_conns"`
	IdleConns int            `json:"idle_conns"`
	Latency   lhist.Snapshot `json:"latency"`
	// Retries is always 0: a request gets one try. The field stays only
	// because bench's upstream.retries row sums it; /stats omits it.
	Retries uint64 `json:"-"`
}

func (b *backend) snapshot() Snapshot {
	return Snapshot{
		Addr:      b.addr,
		Forwarded: b.m.Forwarded.Load(),
		Failures:  b.m.Failures.Load(),
		Timeouts:  b.m.Timeouts.Load(),
		Dials:     b.m.Dials.Load(),
		PoolHits:  b.m.PoolHits.Load(),
		OpenConns: b.pool.open.Load(),
		IdleConns: b.pool.idleCount(),
		Latency:   b.m.Latency.Snapshot(),
	}
}
