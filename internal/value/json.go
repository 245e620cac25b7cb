package value

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// ToJSON converts a Value into a JSON-encodable form that round-trips
// through FromJSON without losing type information. Booleans and strings
// map naturally; every other kind uses a single-key tag object so that
// integers survive float64 coercion and temporal types keep their kind:
//
//	42            → {"$int": "42"}
//	2.5           → {"$float": 2.5}
//	datetime      → {"$datetime": "2023-04-01T00:00:00Z"}
//	duration      → {"$duration": "24h0m0s"}
//	{a: 1}        → {"$map": {"a": …}}
//	node ref      → {"$node": "7"}
//	rel ref       → {"$rel": "9"}
func ToJSON(v Value) any {
	switch v.kind {
	case KindNull:
		return nil
	case KindBool:
		return v.b()
	case KindString:
		return v.s
	case KindInt:
		return map[string]any{"$int": strconv.FormatInt(v.i, 10)}
	case KindFloat:
		f := v.f()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return map[string]any{"$float": strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return map[string]any{"$float": f}
	case KindDateTime:
		return map[string]any{"$datetime": v.t().Format(time.RFC3339Nano)}
	case KindDuration:
		return map[string]any{"$duration": time.Duration(v.i).String()}
	case KindList:
		out := make([]any, len(v.list()))
		for i, e := range v.list() {
			out[i] = ToJSON(e)
		}
		return out
	case KindMap:
		inner := make(map[string]any, len(v.m()))
		for k, e := range v.m() {
			inner[k] = ToJSON(e)
		}
		return map[string]any{"$map": inner}
	case KindNode:
		return map[string]any{"$node": strconv.FormatInt(v.i, 10)}
	case KindRelationship:
		return map[string]any{"$rel": strconv.FormatInt(v.i, 10)}
	default:
		return nil
	}
}

// FromJSON reverses ToJSON. Plain JSON numbers (from hand-written files)
// are accepted and mapped to INTEGER when integral, FLOAT otherwise.
func FromJSON(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool(t), nil
	case string:
		return Str(t), nil
	case float64:
		if t == math.Trunc(t) && math.Abs(t) < 1e15 {
			return Int(int64(t)), nil
		}
		return Float(t), nil
	case []any:
		out := make([]Value, len(t))
		for i, e := range t {
			v, err := FromJSON(e)
			if err != nil {
				return Null, err
			}
			out[i] = v
		}
		return ListOf(out), nil
	case map[string]any:
		if len(t) == 1 {
			for tag, payload := range t {
				switch tag {
				case "$int":
					s, ok := payload.(string)
					if !ok {
						return Null, fmt.Errorf("value: $int payload must be a string")
					}
					i, err := strconv.ParseInt(s, 10, 64)
					if err != nil {
						return Null, fmt.Errorf("value: bad $int %q", s)
					}
					return Int(i), nil
				case "$float":
					switch p := payload.(type) {
					case float64:
						return Float(p), nil
					case string:
						f, err := strconv.ParseFloat(p, 64)
						if err != nil {
							return Null, fmt.Errorf("value: bad $float %q", p)
						}
						return Float(f), nil
					default:
						return Null, fmt.Errorf("value: bad $float payload %T", payload)
					}
				case "$datetime":
					s, ok := payload.(string)
					if !ok {
						return Null, fmt.Errorf("value: $datetime payload must be a string")
					}
					ts, err := time.Parse(time.RFC3339Nano, s)
					if err != nil {
						return Null, fmt.Errorf("value: bad $datetime %q", s)
					}
					return DateTime(ts), nil
				case "$duration":
					s, ok := payload.(string)
					if !ok {
						return Null, fmt.Errorf("value: $duration payload must be a string")
					}
					d, err := time.ParseDuration(s)
					if err != nil {
						return Null, fmt.Errorf("value: bad $duration %q", s)
					}
					return Duration(d), nil
				case "$map":
					inner, ok := payload.(map[string]any)
					if !ok {
						return Null, fmt.Errorf("value: $map payload must be an object")
					}
					m := make(map[string]Value, len(inner))
					for k, e := range inner {
						v, err := FromJSON(e)
						if err != nil {
							return Null, err
						}
						m[k] = v
					}
					return Map(m), nil
				case "$node":
					id, err := parseID(payload)
					if err != nil {
						return Null, err
					}
					return Node(id), nil
				case "$rel":
					id, err := parseID(payload)
					if err != nil {
						return Null, err
					}
					return Relationship(id), nil
				}
			}
		}
		// A plain object without a tag: interpret as a MAP for ergonomic
		// hand-written files.
		m := make(map[string]Value, len(t))
		for k, e := range t {
			v, err := FromJSON(e)
			if err != nil {
				return Null, err
			}
			m[k] = v
		}
		return Map(m), nil
	default:
		return Null, fmt.Errorf("value: cannot decode %T", x)
	}
}

func parseID(payload any) (int64, error) {
	switch p := payload.(type) {
	case string:
		return strconv.ParseInt(p, 10, 64)
	case float64:
		return int64(p), nil
	default:
		return 0, fmt.Errorf("value: bad entity id payload %T", payload)
	}
}
