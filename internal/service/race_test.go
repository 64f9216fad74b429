package service

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmissionsRace hammers the server from many goroutines
// with a mix of identical and distinct specs while jobs execute, then
// drains. Run under -race (tier2 does) this exercises the submit path,
// the cache, worker state transitions, and shutdown for data races; it
// also checks that every job sharing a spec ends with identical bytes.
func TestConcurrentSubmissionsRace(t *testing.T) {
	goroutines, perG := 8, 6
	if testing.Short() {
		goroutines, perG = 4, 3
	}
	s := New(Config{Workers: 4, QueueDepth: goroutines*perG + 1, CacheSize: 8})

	var mu sync.Mutex
	jobs := make([]*Job, 0, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Three distinct experiments (seeds 1..3) submitted over
				// and over from every goroutine: heavy cache contention.
				spec := tinySpec(int64(1 + (g+i)%3))
				j, err := s.Submit(spec)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	bySeed := map[int64][]byte{}
	for _, j := range jobs {
		<-j.Done()
		s.mu.Lock()
		st, res := j.state, j.res
		s.mu.Unlock()
		if st != StateDone {
			t.Fatalf("job %s (seed %d) ended %q: %s", j.ID, j.Spec.Seed, st, j.err)
		}
		if prev, ok := bySeed[j.Spec.Seed]; ok {
			if !bytes.Equal(prev, res.json) {
				t.Fatalf("seed %d produced differing result.json bytes across jobs", j.Spec.Seed)
			}
		} else {
			bySeed[j.Spec.Seed] = res.json
		}
	}
	hits := s.Metrics().Counter("service.cache.hits").Value()
	misses := s.Metrics().Counter("service.cache.misses").Value()
	if hits+misses == 0 || hits == 0 {
		t.Fatalf("expected cache traffic with duplicate specs (hits=%d misses=%d)", hits, misses)
	}
}

// TestRaceSubmitCancelDrain races concurrent submissions and
// cancellations against a drain that begins while they are in flight,
// then checks every accepted job ended done or canceled. Run under -race
// (make race-service) it is the data-race probe for Cancel against
// Shutdown.
func TestRaceSubmitCancelDrain(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	const submitters = 6
	ids := make(chan string, submitters*8)
	var mu sync.Mutex
	var jobs []*Job
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				job, err := s.Submit(tinySpec(int64(g*8 + i + 1)))
				if err != nil {
					continue // Shutdown began and closed intake
				}
				mu.Lock()
				jobs = append(jobs, job)
				mu.Unlock()
				ids <- job.ID
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < submitters*4; i++ {
			select {
			case id := <-ids:
				s.Cancel(id)
			case <-stop:
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let submissions and cancellations overlap, then drain mid-flight.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("test goroutines never finished")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s still open after the drain", j.ID)
		}
		s.mu.Lock()
		st := j.state
		s.mu.Unlock()
		if st != StateDone && st != StateCanceled {
			t.Fatalf("job %s ended %q, want done or canceled", j.ID, st)
		}
	}
}
