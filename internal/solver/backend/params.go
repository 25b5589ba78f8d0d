package backend

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParamType is the declared type of a backend parameter.
type ParamType uint8

const (
	// ParamInt values are canonically Go ints. JSON numbers coerce when
	// integral; CLI strings parse base-10.
	ParamInt ParamType = iota
	// ParamFloat values are float64.
	ParamFloat
	// ParamBool values are bools; CLI strings parse via strconv.
	ParamBool
	// ParamString values pass through untouched.
	ParamString
)

// String returns the wire form ("int", "float", "bool", "string").
func (t ParamType) String() string {
	switch t {
	case ParamInt:
		return "int"
	case ParamFloat:
		return "float"
	case ParamBool:
		return "bool"
	case ParamString:
		return "string"
	default:
		return "unknown"
	}
}

// ParamSpec declares one typed backend knob. Specs are the single
// source of truth for validation at every edge: the HTTP service's 400
// responses, the CLI's -param parsing, and the registry integrity test
// all derive from them.
type ParamSpec struct {
	// Name is the fully qualified key, prefixed with the owning
	// backend's name ("cp.tail_bound").
	Name string
	// Type is the declared value type.
	Type ParamType
	// Default is the value the backend assumes when the request does
	// not set the key. Must be nil or match Type.
	Default any
	// Min/Max bound numeric params inclusively (nil = unbounded).
	Min, Max *float64
	// Help is the one-line description shown by listings.
	Help string
}

// check validates an already-coerced value against the spec's type and
// bounds.
func (s ParamSpec) check(v any) error {
	switch s.Type {
	case ParamInt:
		n, ok := v.(int)
		if !ok {
			return fmt.Errorf("param %s: want int, got %T", s.Name, v)
		}
		return s.checkBounds(float64(n))
	case ParamFloat:
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("param %s: want float, got %T", s.Name, v)
		}
		return s.checkBounds(f)
	case ParamBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("param %s: want bool, got %T", s.Name, v)
		}
	case ParamString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("param %s: want string, got %T", s.Name, v)
		}
	default:
		return fmt.Errorf("param %s: invalid declared type %d", s.Name, s.Type)
	}
	return nil
}

func (s ParamSpec) checkBounds(f float64) error {
	if s.Min != nil && f < *s.Min {
		return fmt.Errorf("param %s: %v below minimum %v", s.Name, f, *s.Min)
	}
	if s.Max != nil && f > *s.Max {
		return fmt.Errorf("param %s: %v above maximum %v", s.Name, f, *s.Max)
	}
	return nil
}

// coerce turns a raw value (JSON decoding yields float64 for every
// number) into the spec's canonical Go type, or errors.
func (s ParamSpec) coerce(v any) (any, error) {
	switch s.Type {
	case ParamInt:
		switch x := v.(type) {
		case int:
			return x, nil
		case int64:
			return int(x), nil
		case float64:
			if x != math.Trunc(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("param %s: %v is not an integer", s.Name, x)
			}
			return int(x), nil
		}
	case ParamFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int:
			return float64(x), nil
		}
	case ParamBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case ParamString:
		if str, ok := v.(string); ok {
			return str, nil
		}
	}
	return nil, fmt.Errorf("param %s: want %s, got %T", s.Name, s.Type, v)
}

// parse turns a CLI string ("-param cp.tail_bound=false") into the
// canonical typed value.
func (s ParamSpec) parse(raw string) (any, error) {
	switch s.Type {
	case ParamInt:
		n, err := strconv.Atoi(raw)
		if err != nil {
			return nil, fmt.Errorf("param %s: %q is not an int", s.Name, raw)
		}
		return n, nil
	case ParamFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("param %s: %q is not a float", s.Name, raw)
		}
		return f, nil
	case ParamBool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("param %s: %q is not a bool", s.Name, raw)
		}
		return b, nil
	case ParamString:
		return raw, nil
	}
	return nil, fmt.Errorf("param %s: invalid declared type %d", s.Name, s.Type)
}

// Params is the validated, canonically typed parameter bag carried by a
// Request. Keys are fully qualified spec names; values match the spec's
// canonical Go type. Build one with ValidateParams or ParseParams —
// hand-built maps skip validation and may carry the wrong types.
type Params map[string]any

// Int reads an int param, falling back to def when absent.
func (p Params) Int(name string, def int) int {
	if v, ok := p[name].(int); ok {
		return v
	}
	return def
}

// Float reads a float param, falling back to def when absent.
func (p Params) Float(name string, def float64) float64 {
	if v, ok := p[name].(float64); ok {
		return v
	}
	return def
}

// Bool reads a bool param, falling back to def when absent.
func (p Params) Bool(name string, def bool) bool {
	if v, ok := p[name].(bool); ok {
		return v
	}
	return def
}

// Str reads a string param, falling back to def when absent.
func (p Params) Str(name, def string) string {
	if v, ok := p[name].(string); ok {
		return v
	}
	return def
}

// Clone returns an independent copy (nil stays nil-equivalent: an empty
// non-nil map, so callers can add keys).
func (p Params) Clone() Params {
	out := make(Params, len(p)+1)
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Canon renders the bag as a stable "k=v,k=v" string (keys sorted) for
// cache keys and logs. String values are quoted so a value containing
// ',' or '=' cannot make two distinct bags render identically (the
// service keys its solution cache on this). Empty bag renders "".
func (p Params) Canon() string {
	if len(p) == 0 {
		return ""
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		if s, ok := p[k].(string); ok {
			fmt.Fprintf(&b, "%s=%q", k, s)
		} else {
			fmt.Fprintf(&b, "%s=%v", k, p[k])
		}
	}
	return b.String()
}

// ValidateParams checks a raw key→value map (typically straight out of
// a JSON body) against the union of every registered backend's declared
// specs and returns the canonically typed bag. Unknown keys, ill-typed
// and out-of-range values error with the full valid set, so HTTP
// handlers can forward the message as a 400 body verbatim.
func ValidateParams(raw map[string]any) (Params, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(Params, len(raw))
	for k, v := range raw {
		spec, ok := SpecFor(k)
		if !ok {
			return nil, fmt.Errorf("unknown param %q (valid params: %s)", k, specNames())
		}
		cv, err := spec.coerce(v)
		if err != nil {
			return nil, err
		}
		if err := spec.check(cv); err != nil {
			return nil, err
		}
		out[k] = cv
	}
	return out, nil
}

// ParseParams turns repeated CLI "key=value" strings into a validated
// bag (the -param flag).
func ParseParams(kvs []string) (Params, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	out := make(Params, len(kvs))
	for _, kv := range kvs {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad param %q (want key=value)", kv)
		}
		key = strings.TrimSpace(key)
		spec, found := SpecFor(key)
		if !found {
			return nil, fmt.Errorf("unknown param %q (valid params: %s)", key, specNames())
		}
		pv, err := spec.parse(strings.TrimSpace(val))
		if err != nil {
			return nil, err
		}
		if err := spec.check(pv); err != nil {
			return nil, err
		}
		out[key] = pv
	}
	return out, nil
}

// ParamFlag collects repeated -param key=value command-line occurrences
// (it implements flag.Value); feed the accumulated strings to
// ParseParams after flag parsing. Shared by iddsolve and iddserver.
type ParamFlag []string

// String renders the accumulated raw entries.
func (p *ParamFlag) String() string { return strings.Join(*p, ",") }

// Set appends one key=value occurrence (validation happens later, in
// ParseParams, once the whole command line is known).
func (p *ParamFlag) Set(v string) error {
	*p = append(*p, v)
	return nil
}

// specNames renders every declared param name, comma separated, for
// error messages; "(none declared)" when the registry declares nothing.
func specNames() string {
	specs := Specs()
	if len(specs) == 0 {
		return "(none declared)"
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}
