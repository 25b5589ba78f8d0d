package codec

import (
	"bytes"
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
)

// FuzzReadText feeds arbitrary bytes to the text parser: it must never
// panic, and anything it accepts must re-serialize to a form it accepts
// again with identical structure counts.
func FuzzReadText(f *testing.F) {
	f.Add("instance demo\nindex a 5\nquery q 50\nplan q 10 a\n")
	f.Add("index a 1\nindex b 2\nquery q 5\nbuild a b 0.5\nprec a b\n")
	f.Add("# only a comment\n")
	f.Add("index a -1\n")
	f.Add("plan q 10 a")
	f.Fuzz(func(t *testing.T, src string) {
		in, err := ReadText(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, in); err != nil {
			t.Fatalf("accepted instance failed to serialize: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if len(back.Indexes) != len(in.Indexes) || len(back.Plans) != len(in.Plans) {
			t.Fatalf("round trip changed structure: %v vs %v", back.Stats(), in.Stats())
		}
	})
}

// FuzzReadJSON feeds arbitrary bytes to the JSON decoder, the service's
// input surface: it must never panic, anything it accepts must compile,
// and it must survive WriteJSON -> ReadJSON with the same statistics.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"name":"demo","indexes":[{"name":"a","create_cost":5}],"queries":[{"name":"q","runtime":50}],"plans":[{"query":0,"indexes":[0],"speedup":10}]}`)
	f.Add(`{"indexes":[{"name":"a","create_cost":1},{"name":"b","create_cost":2}],"queries":[{"name":"q","runtime":5}],"plans":[],"build_interactions":[{"target":0,"helper":1,"speedup":0.5}],"precedences":[{"before":1,"after":0}]}`)
	f.Add(`{"indexes":[{"name":"a","create_cost":1}],"queries":[],"plans":[{"query":3,"indexes":[0],"speedup":1}]}`)
	f.Add(`{"indexes":null}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, src string) {
		in, err := ReadJSON(strings.NewReader(src))
		if err != nil {
			return
		}
		if _, err := model.Compile(in); err != nil {
			t.Fatalf("accepted instance does not compile: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, in); err != nil {
			t.Fatalf("accepted instance failed to serialize: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if back.Stats() != in.Stats() {
			t.Fatalf("round trip changed structure: %v vs %v", back.Stats(), in.Stats())
		}
	})
}
