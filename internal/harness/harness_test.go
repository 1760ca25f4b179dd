package harness

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect runs a batch of n square tasks under the given worker count
// and returns the (index, value) pairs in sink-delivery order.
func collect(t *testing.T, n, workers int) []int {
	t.Helper()
	var got []int
	err := Run(n,
		func(i int) (int, error) {
			// Stagger completion so higher indices often finish first.
			time.Sleep(time.Duration((n-i)%7) * time.Microsecond)
			return i * i, nil
		},
		func(i, v int) error {
			if v != i*i {
				t.Errorf("task %d delivered %d", i, v)
			}
			got = append(got, i)
			return nil
		},
		Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRunDeliversInOrder is the determinism contract: the sink sees
// index order whatever the pool size or completion order.
func TestRunDeliversInOrder(t *testing.T) {
	const n = 200
	want := collect(t, n, 1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), n + 5} {
		got := collect(t, n, workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d delivered %v, want strict index order", workers, got)
		}
	}
	for i, idx := range want {
		if idx != i {
			t.Fatalf("delivery %d was index %d", i, idx)
		}
	}
}

func TestRunCollectsTaskErrors(t *testing.T) {
	var delivered []int
	err := Run(10,
		func(i int) (int, error) {
			if i%4 == 1 {
				return 0, errors.New("boom")
			}
			return i, nil
		},
		func(i, v int) error {
			delivered = append(delivered, i)
			return nil
		},
		Options{Workers: 3})
	if err == nil {
		t.Fatal("failing tasks reported no error")
	}
	for _, i := range []int{1, 5, 9} {
		if !strings.Contains(err.Error(), fmt.Sprintf("task %d", i)) {
			t.Errorf("error %q does not mention task %d", err, i)
		}
	}
	if len(delivered) != 7 {
		t.Errorf("delivered %v, want the 7 surviving tasks", delivered)
	}
}

func TestRunBoundsCollectedErrors(t *testing.T) {
	err := Run(maxCollectedErrors+10,
		func(i int) (int, error) { return 0, errors.New("boom") },
		nil, Options{Workers: 4})
	if err == nil {
		t.Fatal("no error")
	}
	if got := strings.Count(err.Error(), "boom"); got != maxCollectedErrors {
		t.Errorf("retained %d verbatim errors, want %d", got, maxCollectedErrors)
	}
	if !strings.Contains(err.Error(), "10 further task errors omitted") {
		t.Errorf("error %q does not summarize the omitted tail", err)
	}
}

func TestRunSinkErrorStopsDeliveries(t *testing.T) {
	var delivered []int
	err := Run(10,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 2 {
				return errors.New("sink full")
			}
			delivered = append(delivered, i)
			return nil
		},
		Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "sink at task 2") {
		t.Fatalf("err = %v, want sink error", err)
	}
	if !reflect.DeepEqual(delivered, []int{0, 1}) {
		t.Errorf("delivered %v after sink failure, want [0 1]", delivered)
	}
}

// TestRunSinkErrorHaltsDispatch: after a sink failure workers claim no
// new tasks — only the few within the run-ahead window ran.
func TestRunSinkErrorHaltsDispatch(t *testing.T) {
	const n = 100
	var mu sync.Mutex
	executed := 0
	err := Run(n,
		func(i int) (int, error) {
			mu.Lock()
			executed++
			mu.Unlock()
			return i, nil
		},
		func(i, v int) error { return errors.New("sink full") },
		Options{Workers: 1})
	if err == nil {
		t.Fatal("sink error not reported")
	}
	if executed > n/2 {
		t.Errorf("%d of %d tasks ran after the sink failed at task 0", executed, n)
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(0, func(i int) (int, error) { return 0, nil }, nil, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunConcurrentSinks exercises several batches with lock-free
// mutating sinks at once — under -race this verifies the single-
// goroutine sink guarantee.
func TestRunConcurrentSinks(t *testing.T) {
	var wg sync.WaitGroup
	for batch := 0; batch < 8; batch++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			sum := 0
			err := Run(50,
				func(i int) (int, error) { return batch*1000 + i, nil },
				func(i, v int) error { sum += v; return nil },
				Options{Workers: 4})
			if err != nil {
				t.Error(err)
			}
			if want := batch*1000*50 + 49*50/2; sum != want {
				t.Errorf("batch %d sum = %d, want %d", batch, sum, want)
			}
		}(batch)
	}
	wg.Wait()
}

// TestRunPooledStatePerWorker: every worker gets exactly one state
// instance, and tasks see their own worker's state only.
func TestRunPooledStatePerWorker(t *testing.T) {
	const n, workers = 64, 4
	var mu sync.Mutex
	states := 0
	type state struct{ id, tasks int }
	perState := make(map[*state]int)
	err := RunPooled(n,
		func() (*state, error) {
			mu.Lock()
			defer mu.Unlock()
			states++
			return &state{id: states}, nil
		},
		func(s *state, i int) (int, error) {
			s.tasks++ // would race if a state were shared between workers
			mu.Lock()
			perState[s] = s.tasks
			mu.Unlock()
			return i, nil
		},
		nil,
		Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if states != workers {
		t.Errorf("newState ran %d times for %d workers", states, workers)
	}
	total := 0
	for _, c := range perState {
		total += c
	}
	if total != n {
		t.Errorf("states saw %d tasks, want %d", total, n)
	}
}

// TestRunPooledStateError: a worker whose state fails to build fails its
// tasks with the state error; with every worker failing, the batch
// reports the error rather than hanging or succeeding.
func TestRunPooledStateError(t *testing.T) {
	boom := errors.New("no state for you")
	err := RunPooled(8,
		func() (int, error) { return 0, boom },
		func(_ int, i int) (int, error) { return i, nil },
		func(i, v int) error {
			t.Errorf("sink saw task %d despite state failure", i)
			return nil
		},
		Options{Workers: 2})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestRunPooledOrderMatchesRun: RunPooled preserves the strict
// index-order sink contract whatever the worker count.
func TestRunPooledOrderMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var got []int
		err := RunPooled(40,
			func() (struct{}, error) { return struct{}{}, nil },
			func(_ struct{}, i int) (int, error) {
				time.Sleep(time.Duration((40-i)%5) * time.Microsecond)
				return i, nil
			},
			func(i, v int) error {
				got = append(got, v)
				return nil
			},
			Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if i != v {
				t.Fatalf("workers=%d: delivery %d carried %d", workers, i, v)
			}
		}
	}
}

// TestRunDefaultWindowBoundsRunAhead pins the bounded-reorder contract:
// with task 0 stalled, workers may claim at most runAheadPerWorker
// tasks each ahead of the sink, however large the batch.
func TestRunDefaultWindowBoundsRunAhead(t *testing.T) {
	const workers = 4
	assertWindow(t, Options{Workers: workers}, runAheadPerWorker*workers)
}

// assertWindow stalls task 0 of a batch four times the window and
// checks that exactly window tasks start before the pool stops
// claiming, then releases the stall and checks the full, ordered
// delivery.
func assertWindow(t *testing.T, opts Options, window int) {
	t.Helper()
	n := 4 * window
	release := make(chan struct{})
	started := make(chan int, n)
	var got []int
	errc := make(chan error, 1)
	go func() {
		errc <- Run(n,
			func(i int) (int, error) {
				started <- i
				if i == 0 {
					<-release // stall the run everyone reorders behind
				}
				return i, nil
			},
			func(i, v int) error { got = append(got, v); return nil },
			opts)
	}()

	// Drain task starts until the pool stalls on the full window. With
	// index 0 never consumed, no slot frees, so at most window tasks can
	// ever start.
	seen := 0
	for timeout := time.After(5 * time.Second); ; {
		select {
		case <-started:
			seen++
			if seen > window {
				close(release)
				t.Fatalf("%d tasks started with a window of %d", seen, window)
			}
		case <-timeout:
			t.Fatalf("pool stalled before filling the window (%d of %d started)", seen, window)
		case <-time.After(50 * time.Millisecond):
			if seen == window {
				close(release)
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("delivery %d was index %d", i, v)
					}
				}
				if len(got) != n {
					t.Fatalf("delivered %d results, want %d", len(got), n)
				}
				return
			}
		}
	}
}

// TestRunPooledLeavesNoGoroutines: RunPooled returns only after every
// goroutine it started has exited, on every exit path and whether the
// window is the run-ahead bound or a batch no larger than the pool
// (window == workers == n).
func TestRunPooledLeavesNoGoroutines(t *testing.T) {
	// One P makes the count exact: the last worker's wg.Done readies the
	// caller on that worker's P, which runs the caller only once the
	// worker has exited. With more Ps an idle one may resume the caller
	// while the worker is still tearing down.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched() // let goroutines that earlier tests left exiting finish
	boom := errors.New("boom")
	okState := func() (int, error) { return 0, nil }
	okTask := func(_ int, i int) (int, error) { return i, nil }
	sinkFailsAt := func(at int) func(i, v int) error {
		return func(i, v int) error {
			if i == at {
				return boom
			}
			return nil
		}
	}
	for _, n := range []int{200, 4} {
		cases := []struct {
			name     string
			newState func() (int, error)
			task     func(int, int) (int, error)
			sink     func(i, v int) error
			wantErr  bool
		}{
			{"success", okState, okTask, nil, false},
			{"task errors", okState, func(_ int, i int) (int, error) {
				if i%3 == 0 {
					return 0, boom
				}
				return i, nil
			}, nil, true},
			{"sink error at task 0", okState, okTask, sinkFailsAt(0), true},
			{"sink error mid-batch", okState, okTask, sinkFailsAt(n / 2), true},
			{"newState error", func() (int, error) { return 0, boom }, okTask, nil, true},
		}
		for _, c := range cases {
			before := runtime.NumGoroutine()
			err := RunPooled(n, c.newState, c.task, c.sink, Options{Workers: 4})
			after := runtime.NumGoroutine()
			if (err != nil) != c.wantErr {
				t.Errorf("%s, n=%d: err = %v", c.name, n, err)
			}
			if after != before {
				t.Errorf("%s, n=%d: %d goroutines before, %d after return", c.name, n, before, after)
			}
		}
	}
}

// TestRunFullWindowSinkError: a window no larger than the pool (a
// batch of workers tasks) must not deadlock the abort path when the
// sink fails mid-batch.
func TestRunFullWindowSinkError(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 2 {
				return boom
			}
			return nil
		},
		Options{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink error", err)
	}
}
