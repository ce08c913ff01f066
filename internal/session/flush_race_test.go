package session

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestFlushRace pins the incremental-flush contract under concurrency:
// while a producer goroutine Adds samples (the sampler tick), several
// flusher goroutines race Since→Append cycles over a shared watermark —
// the same mutex discipline gateway.FlushTimeline uses to let the
// periodic interval flusher and the SIGUSR1-forced flush interleave.
// Every sample must land on the artifact exactly once, in order, under
// a single CSV header. Run with -race.
func TestFlushRace(t *testing.T) {
	const total = 2000
	r := newRing(total) // roomy: no evictions, so exactly-once is checkable
	var buf bytes.Buffer
	a := NewAppender(&buf, true)

	// flushMu serialises Since + Append + watermark update as one unit;
	// the ring itself is safe for concurrent Add/Since, but interleaving
	// two flush cycles would double-append the overlap.
	var flushMu sync.Mutex
	var mark uint64
	flush := func() {
		flushMu.Lock()
		defer flushMu.Unlock()
		samples, wm := r.Since(mark)
		if err := a.Append(samples); err != nil {
			t.Errorf("append: %v", err)
		}
		mark = wm
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			r.Add(Sample{TMS: int64(i)})
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					flush()
				}
			}
		}()
	}
	<-done
	wg.Wait()
	flush() // the shutdown-path tail flush

	if a.Rows() != total {
		t.Fatalf("appender wrote %d rows, want %d", a.Rows(), total)
	}
	if strings.Count(buf.String(), "t_ms,") != 1 {
		t.Fatalf("header written more than once")
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("artifact unreadable: %v", err)
	}
	if len(rows) != total {
		t.Fatalf("artifact has %d rows, want %d", len(rows), total)
	}
	for i, row := range rows {
		if row.TMS != int64(i) {
			t.Fatalf("row %d has t_ms %d: samples duplicated or dropped", i, row.TMS)
		}
	}
}
