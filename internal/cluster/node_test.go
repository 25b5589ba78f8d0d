package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/service"
)

// newLoneNode builds a node whose peers are never probed (Start is not
// called), so every peer stays down and no request leaves the process.
func newLoneNode(t *testing.T, self string, peers ...string) *Node {
	t.Helper()
	n, err := New(Config{Self: self, Peers: peers}, service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Server().Shutdown(ctx)
	})
	return n
}

func serveLocal(n *Node, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	return rec
}

func TestNormalizeAddr(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"bare host:port", "h:1", "http://h:1"},
		{"trailing slash", "http://h:1/", "http://h:1"},
		{"surrounding space", "  h:1 ", "http://h:1"},
		{"scheme kept", "https://h:2", "https://h:2"},
		{"path dropped", "http://h:1/solve", "http://h:1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := normalizeAddr(c.in)
			if err != nil || got != c.want {
				t.Fatalf("normalizeAddr(%q) = %q, %v; want %q", c.in, got, err, c.want)
			}
		})
	}
	for _, c := range []struct{ name, in string }{
		{"empty", "  "},
		{"no host", "http:///solve"},
		{"scheme only", "http://"},
		{"scheme and slash only", "https:///"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got, err := normalizeAddr(c.in); err == nil {
				t.Fatalf("normalizeAddr(%q) = %q, want an error", c.in, got)
			}
		})
	}
}

func TestConfigWithDefaults(t *testing.T) {
	t.Run("members deduplicated and sorted", func(t *testing.T) {
		c, err := Config{Self: "h:2", Peers: []string{"http://h:3/", "h:2", "h:1", "h:3"}}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"http://h:1", "http://h:2", "http://h:3"}
		if c.Self != "http://h:2" || strings.Join(c.Peers, ",") != strings.Join(want, ",") {
			t.Fatalf("self %q peers %v; want http://h:2 and %v", c.Self, c.Peers, want)
		}
	})
	for _, c := range []struct {
		name                   string
		interval, timeout      time.Duration
		wantInterval, wantTime time.Duration
	}{
		{"zero intervals", 0, 0, time.Second, 3 * time.Second},
		{"timeout follows interval", 100 * time.Millisecond, 0, 100 * time.Millisecond, 300 * time.Millisecond},
		{"explicit timeout kept", 100 * time.Millisecond, time.Second, 100 * time.Millisecond, time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := Config{Self: "h:1", GossipInterval: c.interval, PeerTimeout: c.timeout}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			if got.GossipInterval != c.wantInterval || got.PeerTimeout != c.wantTime {
				t.Fatalf("interval %v timeout %v; want %v and %v",
					got.GossipInterval, got.PeerTimeout, c.wantInterval, c.wantTime)
			}
		})
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"bad self", Config{Self: ""}},
		{"bad peer", Config{Self: "h:1", Peers: []string{"http:///solve"}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.cfg.withDefaults(); err == nil {
				t.Fatalf("%+v: want an error", c.cfg)
			}
			if _, err := New(c.cfg, service.Config{}); err == nil {
				t.Fatalf("New(%+v): want an error", c.cfg)
			}
		})
	}
}

func TestNodeNameStable(t *testing.T) {
	a, b := NodeName("http://h:1"), NodeName("http://h:2")
	if a != NodeName("http://h:1") {
		t.Fatal("NodeName is not a pure function of the address")
	}
	if a == b {
		t.Fatalf("two addresses share the name %q", a)
	}
	if re := regexp.MustCompile(`^n[0-9a-f]{8}$`); !re.MatchString(a) || !re.MatchString(b) {
		t.Fatalf("names %q, %q are not n + 8 hex chars", a, b)
	}
}

func TestOwnerByID(t *testing.T) {
	const peer = "http://127.0.0.1:2"
	n := newLoneNode(t, "127.0.0.1:1", peer)
	p := NodeName(peer)
	for _, c := range []struct {
		name, path string
		want       string // owning peer address, "" = served here
	}{
		{"peer job", "/jobs/" + p + "-1", peer},
		{"peer job subresource", "/jobs/" + p + "-1/events", peer},
		{"peer batch", "/batch/" + p + "-ab", peer},
		{"peer session", "/sessions/" + p + "-ab/steps", peer},
		{"own id", "/jobs/" + n.Name() + "-1", ""},
		{"unknown prefix", "/jobs/nffffffff-1", ""},
		{"no prefix", "/jobs/abc", ""},
		{"no id", "/jobs/", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := ""
			if ps := n.ownerByID(c.path); ps != nil {
				got = ps.addr
			}
			if got != c.want {
				t.Fatalf("ownerByID(%q) = %q, want %q", c.path, got, c.want)
			}
		})
	}
}

func TestParseInstanceBody(t *testing.T) {
	in := genInstance(3, 6, 8, 0.1)
	var js, txt bytes.Buffer
	if err := codec.WriteJSON(&js, in); err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteText(&txt, in); err != nil {
		t.Fatal(err)
	}
	canon, _ := codec.Canonicalize(in)
	want := codec.CanonicalHash(canon)
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"envelope", solveBody(t, in, map[string]any{"budget": "1s"})},
		{"bare json", js.Bytes()},
		{"text matrix", txt.Bytes()},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := parseInstanceBody(c.body)
			if got == nil {
				t.Fatal("body did not parse")
			}
			canon, _ := codec.Canonicalize(got)
			if h := codec.CanonicalHash(canon); h != want {
				t.Fatalf("parsed instance hashes to %s, want %s", h, want)
			}
		})
	}
	t.Run("garbage", func(t *testing.T) {
		if got := parseInstanceBody([]byte("not an instance")); got != nil {
			t.Fatalf("garbage parsed as %+v", got)
		}
	})
}

// TestResultFrameMalformed: a frame that does not decode, or lacks its
// key or result, is answered 400 and installs nothing; a well-formed
// one is answered 204 and counted.
func TestResultFrameMalformed(t *testing.T) {
	n := newLoneNode(t, "127.0.0.1:1")
	for _, c := range []struct{ name, body string }{
		{"empty body", ""},
		{"not json", "not json"},
		{"no key", `{"result":{"order":[0,1]}}`},
		{"empty key", `{"key":"","result":{"order":[0,1]}}`},
		{"null result", `{"key":"k","result":null}`},
		{"no result", `{"key":"k"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if rec := serveLocal(n, http.MethodPost, "/cluster/result", []byte(c.body), nil); rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", rec.Code)
			}
			if got := n.Snapshot().ResultsApplied; got != 0 {
				t.Fatalf("results_applied = %d after a malformed frame", got)
			}
		})
	}
	if rec := serveLocal(n, http.MethodPost, "/cluster/result", []byte(`{"key":"k","result":{"order":[0,1]}}`), nil); rec.Code != http.StatusNoContent {
		t.Fatalf("well-formed frame: status %d, want 204", rec.Code)
	}
	if got := n.Snapshot().ResultsApplied; got != 1 {
		t.Fatalf("results_applied = %d, want 1", got)
	}
}

// TestForwardedRequestServedLocally: a request for a down owner's
// instance falls back to a local solve and is counted; one already
// forwarded by a peer is served here without a second routing decision.
func TestForwardedRequestServedLocally(t *testing.T) {
	const peer = "http://127.0.0.1:2"
	n := newLoneNode(t, "127.0.0.1:1", peer)
	var body []byte
	for seed := int64(1); body == nil; seed++ {
		in := genInstance(seed, 6, 8, 0.1)
		canon, _ := codec.Canonicalize(in)
		if n.ring.owner(codec.CanonicalHash(canon)) == peer {
			body = solveBody(t, in, map[string]any{"budget": "2s"})
		}
	}
	if rec := serveLocal(n, http.MethodPost, "/solve", body, nil); rec.Code != http.StatusOK {
		t.Fatalf("fallback solve: status %d: %s", rec.Code, rec.Body)
	}
	if s := n.Snapshot(); s.ForwardFallbacks != 1 || s.Forwards != 0 {
		t.Fatalf("after fallback: forwards %d fallbacks %d, want 0 and 1", s.Forwards, s.ForwardFallbacks)
	}
	rec := serveLocal(n, http.MethodPost, "/solve", body, map[string]string{ForwardedHeader: NodeName(peer)})
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded solve: status %d: %s", rec.Code, rec.Body)
	}
	if s := n.Snapshot(); s.ForwardFallbacks != 1 || s.Forwards != 0 {
		t.Fatalf("after forwarded request: forwards %d fallbacks %d, want 0 and 1", s.Forwards, s.ForwardFallbacks)
	}
}
