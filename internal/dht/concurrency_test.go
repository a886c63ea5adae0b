package dht

import (
	"fmt"
	"sync"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// TestConcurrentAccess exercises the documented concurrency contract:
// parallel puts, gets, lookups and membership changes must be safe (run
// under -race to validate).
func TestConcurrentAccess(t *testing.T) {
	n, nodes := mustNetwork(t, 16)
	var wg sync.WaitGroup
	const workers = 8
	const opsPerWorker = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := keyspace.NewKey(fmt.Sprintf("w%d-k%d", w, i%37))
				switch i % 4 {
				case 0:
					if _, err := n.Put(nodes[w%len(nodes)], key, Entry{Kind: "d", Value: "v"}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := n.Get(nodes[(w+1)%len(nodes)], key); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := n.Lookup(nodes[(w+2)%len(nodes)], key); err != nil {
						t.Error(err)
						return
					}
				default:
					_ = n.KeyLoad()
				}
			}
		}(w)
	}
	// Concurrent membership churn: add and remove nodes while traffic
	// flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			addr := fmt.Sprintf("churny-%d", i)
			if _, err := n.AddNode(addr); err != nil {
				t.Error(err)
				return
			}
			if err := n.RemoveNode(addr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := n.VerifyRing(); err != nil {
		t.Fatalf("ring invariants after concurrent access: %v", err)
	}
}

// TestOverlayConcurrentOps shares one Overlay, and so one contact-node
// random source, among goroutines that put and get at once (run under
// -race: the contact draw must be serialized).
func TestOverlayConcurrentOps(t *testing.T) {
	n, _ := mustNetwork(t, 32)
	ov := AsOverlay(n, 1)
	var wg sync.WaitGroup
	const workers = 6
	const opsPerWorker = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := keyspace.NewKey(fmt.Sprintf("w%d-k%d", w, i))
				e := overlay.Entry{Kind: "d", Value: fmt.Sprint(i)}
				if _, err := ov.Put(key, e); err != nil {
					t.Error(err)
					return
				}
				got, _, err := ov.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != 1 || got[0] != e {
					t.Errorf("Get(%d/%d) = %v, want [%v]", w, i, got, e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := n.Metrics(); m.StoreOps != workers*opsPerWorker || m.RetrieveOps != workers*opsPerWorker {
		t.Fatalf("metrics = %+v, want %d stores and retrieves", m, workers*opsPerWorker)
	}
}
