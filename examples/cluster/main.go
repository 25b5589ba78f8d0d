// Example cluster: a walkthrough of the distributed solve cluster.
//
// The example starts three peered cluster nodes in-process on loopback
// listeners (so it runs standalone — docker-compose.yml in this
// directory runs the same topology as three real processes), then acts
// as a plain HTTP client against them: it submits a solve to a node
// that does NOT own the instance's canonical hash and shows the request
// being forwarded to its ring owner, resubmits the same problem with
// its indexes reordered to a third node and hits the owner's cache
// cluster-wide, inspects the per-peer health in /healthz and the
// idd_cluster_* counters in /metrics, and finally stops one node to
// show gossip marking it down while the survivors keep serving.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"github.com/evolving-olap/idd/internal/cluster"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

func main() {
	log.SetFlags(0)

	// --- Start three peered nodes, listeners first so every node knows
	// the full membership before it serves.
	const k = 3
	listeners := make([]net.Listener, k)
	urls := make([]string, k)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*cluster.Node, k)
	srvs := make([]*http.Server, k)
	for i := range nodes {
		node, err := cluster.New(cluster.Config{
			Self:           urls[i],
			Peers:          urls,
			GossipInterval: 100 * time.Millisecond,
		}, service.Config{Workers: 1, DefaultBudget: 5 * time.Second, MaxBudget: 60 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		srvs[i] = &http.Server{Handler: node.Handler()}
		go srvs[i].Serve(listeners[i])
		node.Start()
		log.Printf("node %d: %s is %s", i, urls[i], node.Name())
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := range nodes {
			if nodes[i] == nil {
				continue
			}
			srvs[i].Close()
			nodes[i].Close()
			nodes[i].Server().Shutdown(ctx)
		}
	}()
	waitConverged(nodes)
	log.Printf("gossip converged: every node sees %d peers up\n", k-1)

	// --- Sharded routing: find a node that does NOT own this instance
	// and submit there. The non-owner forwards to the ring owner.
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 10
	in := randgen.New(rand.New(rand.NewSource(7)), cfg)

	res := postSolve(urls[2], in, "5s")
	log.Printf("solve via %s: objective %.1f, proved %v", nodes[2].Name(), res["objective"], res["proved"])
	for i, n := range nodes {
		s := n.Snapshot()
		if s.Forwards > 0 {
			log.Printf("node %d (%s) forwarded %d request(s) to the ring owner", i, n.Name(), s.Forwards)
		}
	}

	// --- The cache is cluster-wide: the same problem with its index
	// slice reversed (and every integer reference relabeled accordingly)
	// canonicalizes to the same hash, so any node serves it from the
	// owner's cache.
	res = postSolve(urls[0], reverseIndexes(in), "5s")
	log.Printf("reordered resubmission via %s: cache_hit=%v, same objective %.1f\n",
		nodes[0].Name(), res["cache_hit"] == true, res["objective"])
	for i, n := range nodes {
		s := n.Snapshot()
		log.Printf("node %d (%s): %d result(s) replicated out, %d in",
			i, n.Name(), s.ResultsSent, s.ResultsApplied)
	}
	log.Println()

	// --- Failure: stop node 2. Gossip marks it down everywhere; the
	// survivors keep serving, falling back to local solves for keys it
	// owned.
	srvs[2].Close()
	nodes[2].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	nodes[2].Server().Shutdown(ctx)
	cancel()
	down := nodes[2].Name()
	nodes[2] = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := nodes[0].Snapshot()
		sawDown := false
		for _, p := range s.Peers {
			if p.Name == down && p.State == "down" {
				sawDown = true
			}
		}
		if sawDown || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	log.Printf("stopped %s; node 0 health now:", down)
	for _, p := range nodes[0].Snapshot().Peers {
		log.Printf("  peer %s (%s): %s", p.Name, p.Addr, p.State)
	}
	small := randgen.DefaultConfig()
	small.Indexes = 10
	in2 := randgen.New(rand.New(rand.NewSource(8)), small)
	res = postSolve(urls[0], in2, "5s")
	log.Printf("solve with a member down still works: proved %v (local fallback if %s owned it)", res["proved"], down)
}

func waitConverged(nodes []*cluster.Node) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			for _, p := range n.Snapshot().Peers {
				if p.State != "up" {
					ok = false
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("gossip did not converge")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// reverseIndexes returns the same problem with the index slice reversed
// and plan / build-interaction / precedence references relabeled to
// match — a different byte encoding of the same canonical instance.
func reverseIndexes(in *model.Instance) *model.Instance {
	n := len(in.Indexes)
	perm := make([]int, n)
	out := &model.Instance{
		Indexes: make([]model.Index, n),
		Queries: append([]model.Query(nil), in.Queries...),
	}
	for i := range in.Indexes {
		perm[i] = n - 1 - i
		out.Indexes[perm[i]] = in.Indexes[i]
	}
	for _, p := range in.Plans {
		idx := make([]int, len(p.Indexes))
		for k, i := range p.Indexes {
			idx[k] = perm[i]
		}
		out.Plans = append(out.Plans, model.Plan{Query: p.Query, Indexes: idx, Speedup: p.Speedup})
	}
	for _, b := range in.BuildInteractions {
		out.BuildInteractions = append(out.BuildInteractions, model.BuildInteraction{
			Target: perm[b.Target], Helper: perm[b.Helper], Speedup: b.Speedup,
		})
	}
	for _, pr := range in.Precedences {
		out.Precedences = append(out.Precedences, model.Precedence{Before: perm[pr.Before], After: perm[pr.After]})
	}
	return out
}

func postSolve(base string, in *model.Instance, budget string) map[string]any {
	body, _ := json.Marshal(map[string]any{"instance": in, "budget": budget})
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s/solve: HTTP %d: %v", base, resp.StatusCode, out)
	}
	return out
}
