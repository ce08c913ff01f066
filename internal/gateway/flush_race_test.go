package gateway

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/workload"
)

// TestTimelineFlushRace hammers FlushTimeline — the SIGUSR1-forced
// flush path — from several goroutines while the periodic interval
// flusher runs and load is in flight. Whatever interleaving the
// scheduler picks, the artifact must end up with every recorded sample
// exactly once, in order, under a single CSV header. Run with -race.
func TestTimelineFlushRace(t *testing.T) {
	t.Setenv(ForceRuntimeOnlyEnv, "1") // deterministic in either world
	var buf syncBuffer
	srv := startServer(t, Config{
		UseCase:               workload.FR,
		SampleInterval:        2 * time.Millisecond,
		SampleCapacity:        4096, // never overrun during the test, so rows==total holds
		TimelineFlush:         session.NewAppender(&buf, true),
		TimelineFlushInterval: 3 * time.Millisecond,
	})
	addr := srv.Addr().String()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.FlushTimeline(); err != nil {
					t.Errorf("forced flush: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 4, Messages: 50}); err != nil {
		t.Fatal(err)
	}
	// 200 messages can finish inside one sampling interval: let the
	// session record at least one sample before stopping it.
	for deadline := time.Now().Add(5 * time.Second); srv.timeline.sampler.Total() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("session recorded no samples")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	total := srv.timeline.sampler.Total()
	if total == 0 {
		t.Fatal("session recorded no samples")
	}
	rows, err := session.ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("flushed artifact unreadable: %v\nartifact:\n%s", err, buf.String())
	}
	if uint64(len(rows)) != total {
		t.Fatalf("artifact has %d rows, session recorded %d samples", len(rows), total)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TMS < rows[i-1].TMS {
			t.Fatalf("rows out of order at %d: %d then %d", i, rows[i-1].TMS, rows[i].TMS)
		}
	}
	if strings.Count(buf.String(), "t_ms,") != 1 {
		t.Fatalf("header written more than once:\n%s", buf.String())
	}
}
