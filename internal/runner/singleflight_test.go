package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFlightCoalesces(t *testing.T) {
	var f Flight[string, int]
	started := make(chan struct{})
	finish := make(chan struct{})
	var leaders, joiners int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i > 0 {
				<-started // guarantee the leader is in flight first
			}
			v, leader, err := f.Do("k", func() (int, error) {
				close(started)
				<-finish
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			mu.Lock()
			if leader {
				leaders++
			} else {
				joiners++
			}
			mu.Unlock()
		}()
	}
	go func() {
		<-started
		time.Sleep(10 * time.Millisecond) // let joiners pile onto the flight
		close(finish)
	}()
	wg.Wait()
	if leaders != 1 || joiners != 3 {
		t.Errorf("leaders = %d, joiners = %d; want 1 and 3", leaders, joiners)
	}
}

// TestFlightDoCtxJoinCancel pins down the serving requirement: a
// joiner whose context dies stops waiting immediately, while the
// leader's computation runs to completion for the callers that
// remain.
func TestFlightDoCtxJoinCancel(t *testing.T) {
	var f Flight[string, int]
	started := make(chan struct{})
	finish := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := f.Do("k", func() (int, error) {
			close(started)
			<-finish
			return 7, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	joinErr := make(chan error, 1)
	go func() {
		_, leader, err := f.DoCtx(ctx, "k", func() (int, error) {
			t.Error("joiner executed compute")
			return 0, nil
		})
		if leader {
			t.Error("joiner reported itself leader")
		}
		joinErr <- err
	}()
	cancel()
	select {
	case err := <-joinErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled join returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled joiner still parked on the flight")
	}

	// The leader is unaffected by the joiner's cancellation.
	close(finish)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader returned %v", err)
	}
}
