// Package value implements the dynamically typed values stored in property
// graphs and manipulated by the Cypher-subset query language.
//
// The type system follows the Cypher/GQL data model: NULL, BOOLEAN, INTEGER
// (64-bit), FLOAT (64-bit), STRING, DATETIME, DURATION, LIST and MAP, plus
// graph references (NODE and RELATIONSHIP) that hold entity identifiers.
// Values are immutable once constructed; lists and maps must not be mutated
// after being wrapped.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic type of a Value.
type Kind int

// The kinds of values, mirroring the Cypher data model.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDateTime
	KindDuration
	KindList
	KindMap
	KindNode
	KindRelationship
)

// String returns the GQL-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindDateTime:
		return "DATETIME"
	case KindDuration:
		return "DURATION"
	case KindList:
		return "LIST"
	case KindMap:
		return "MAP"
	case KindNode:
		return "NODE"
	case KindRelationship:
		return "RELATIONSHIP"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Value is a dynamically typed property or query value. The zero Value is
// NULL.
//
// The layout is kept to 40 bytes because every stored property holds one:
// the scalar kinds live inline (a FLOAT as its IEEE-754 bits in the integer
// word, a BOOLEAN as 0 or 1 there), and DATETIME, LIST and MAP, whose
// payloads are larger, sit behind one pointer.
type Value struct {
	kind Kind
	// i is the payload of BOOLEAN, INTEGER, FLOAT (bits), DURATION and the
	// entity id of NODE/RELATIONSHIP.
	i int64
	s string
	x *boxed
}

// boxed holds the payload of the kinds that do not fit inline.
type boxed struct {
	t    time.Time
	list []Value
	m    map[string]Value
}

// Null is the NULL value.
var Null = Value{kind: KindNull}

// Bool returns a BOOLEAN value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a FLOAT value.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// String_ returns a STRING value. The underscore avoids clashing with the
// fmt.Stringer method on Value.
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is a shorthand alias for String_.
func Str(s string) Value { return String_(s) }

// DateTime returns a DATETIME value.
func DateTime(t time.Time) Value { return Value{kind: KindDateTime, x: &boxed{t: t}} }

// Duration returns a DURATION value.
func Duration(d time.Duration) Value { return Value{kind: KindDuration, i: int64(d)} }

// List returns a LIST value wrapping vs. The slice is owned by the Value.
func List(vs ...Value) Value { return ListOf(vs) }

// ListOf wraps an existing slice as a LIST value without copying.
func ListOf(vs []Value) Value { return Value{kind: KindList, x: &boxed{list: vs}} }

// Map returns a MAP value wrapping m. The map is owned by the Value.
func Map(m map[string]Value) Value { return Value{kind: KindMap, x: &boxed{m: m}} }

// Node returns a NODE reference holding a graph node identifier.
func Node(id int64) Value { return Value{kind: KindNode, i: id} }

// Relationship returns a RELATIONSHIP reference holding an edge identifier.
func Relationship(id int64) Value { return Value{kind: KindRelationship, i: id} }

// The payload readers below are only meaningful for the matching kind; for
// any other kind they return the zero payload.

func (v Value) b() bool { return v.kind == KindBool && v.i != 0 }

func (v Value) f() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.i))
}

func (v Value) t() time.Time {
	if v.kind != KindDateTime {
		return time.Time{}
	}
	return v.x.t
}

func (v Value) list() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.x.list
}

func (v Value) m() map[string]Value {
	if v.kind != KindMap {
		return nil
	}
	return v.x.m
}

// word is the integer payload of INTEGER, DURATION, NODE and RELATIONSHIP;
// 0 for BOOLEAN and FLOAT, whose word holds other data.
func (v Value) word() int64 {
	if v.kind == KindBool || v.kind == KindFloat {
		return 0
	}
	return v.i
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if v is not a BOOLEAN.
func (v Value) AsBool() (b bool, ok bool) { return v.b(), v.kind == KindBool }

// AsInt returns the integer payload; ok is false if v is not an INTEGER.
func (v Value) AsInt() (i int64, ok bool) { return v.word(), v.kind == KindInt }

// AsFloat returns the float payload; ok is false if v is not a FLOAT.
func (v Value) AsFloat() (f float64, ok bool) { return v.f(), v.kind == KindFloat }

// AsString returns the string payload; ok is false if v is not a STRING.
func (v Value) AsString() (s string, ok bool) { return v.s, v.kind == KindString }

// AsDateTime returns the time payload; ok is false if v is not a DATETIME.
func (v Value) AsDateTime() (t time.Time, ok bool) { return v.t(), v.kind == KindDateTime }

// AsDuration returns the duration payload; ok is false if v is not a DURATION.
func (v Value) AsDuration() (d time.Duration, ok bool) {
	return time.Duration(v.word()), v.kind == KindDuration
}

// AsList returns the list payload; ok is false if v is not a LIST. The
// returned slice must not be mutated.
func (v Value) AsList() (vs []Value, ok bool) { return v.list(), v.kind == KindList }

// AsMap returns the map payload; ok is false if v is not a MAP. The returned
// map must not be mutated.
func (v Value) AsMap() (m map[string]Value, ok bool) { return v.m(), v.kind == KindMap }

// EntityID returns the node or relationship identifier; ok is false if v is
// not a NODE or RELATIONSHIP reference.
func (v Value) EntityID() (id int64, ok bool) {
	return v.word(), v.kind == KindNode || v.kind == KindRelationship
}

// NumberAsFloat returns the numeric payload widened to float64; ok is false
// if v is neither INTEGER nor FLOAT.
func (v Value) NumberAsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f(), true
	default:
		return 0, false
	}
}

// IsNumber reports whether v is an INTEGER or FLOAT.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// Truthy implements Cypher's ternary logic for predicates: it returns
// (true,true) for TRUE, (false,true) for FALSE, and (false,false) for NULL.
// Non-boolean, non-null values are an error in strict Cypher; we map them to
// NULL (unknown) to keep predicate evaluation total.
func (v Value) Truthy() (val bool, known bool) {
	switch v.kind {
	case KindBool:
		return v.b(), true
	default:
		return false, false
	}
}

// String renders v in a Cypher-literal-like syntax, usable in logs, shells
// and test expectations.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.b() {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		f := v.f()
		if math.IsInf(f, 1) {
			return "Infinity"
		}
		if math.IsInf(f, -1) {
			return "-Infinity"
		}
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindDateTime:
		return v.t().Format(time.RFC3339Nano)
	case KindDuration:
		return time.Duration(v.i).String()
	case KindList:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range v.list() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(']')
		return sb.String()
	case KindMap:
		keys := make([]string, 0, len(v.m()))
		for k := range v.m() {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k)
			sb.WriteString(": ")
			sb.WriteString(v.m()[k].String())
		}
		sb.WriteByte('}')
		return sb.String()
	case KindNode:
		return fmt.Sprintf("Node(%d)", v.i)
	case KindRelationship:
		return fmt.Sprintf("Rel(%d)", v.i)
	default:
		return fmt.Sprintf("value(kind=%d)", int(v.kind))
	}
}

// FromGo converts a native Go value into a Value. Supported inputs: nil,
// bool, all integer types, float32/float64, string, time.Time,
// time.Duration, []any, map[string]any, []Value, map[string]Value and Value
// itself. Unsupported types are rendered via fmt as STRING.
func FromGo(x any) Value {
	switch t := x.(type) {
	case nil:
		return Null
	case Value:
		return t
	case bool:
		return Bool(t)
	case int:
		return Int(int64(t))
	case int8:
		return Int(int64(t))
	case int16:
		return Int(int64(t))
	case int32:
		return Int(int64(t))
	case int64:
		return Int(t)
	case uint:
		return Int(int64(t))
	case uint8:
		return Int(int64(t))
	case uint16:
		return Int(int64(t))
	case uint32:
		return Int(int64(t))
	case uint64:
		return Int(int64(t))
	case float32:
		return Float(float64(t))
	case float64:
		return Float(t)
	case string:
		return String_(t)
	case time.Time:
		return DateTime(t)
	case time.Duration:
		return Duration(t)
	case []Value:
		return ListOf(t)
	case map[string]Value:
		return Map(t)
	case []any:
		vs := make([]Value, len(t))
		for i, e := range t {
			vs[i] = FromGo(e)
		}
		return ListOf(vs)
	case map[string]any:
		m := make(map[string]Value, len(t))
		for k, e := range t {
			m[k] = FromGo(e)
		}
		return Map(m)
	default:
		return String_(fmt.Sprint(x))
	}
}

// Go converts v back into a native Go value: nil, bool, int64, float64,
// string, time.Time, time.Duration, []any, map[string]any, or int64 for
// entity references.
func (v Value) Go() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindBool:
		return v.b()
	case KindInt:
		return v.i
	case KindFloat:
		return v.f()
	case KindString:
		return v.s
	case KindDateTime:
		return v.t()
	case KindDuration:
		return time.Duration(v.i)
	case KindList:
		out := make([]any, len(v.list()))
		for i, e := range v.list() {
			out[i] = e.Go()
		}
		return out
	case KindMap:
		out := make(map[string]any, len(v.m()))
		for k, e := range v.m() {
			out[k] = e.Go()
		}
		return out
	case KindNode, KindRelationship:
		return v.i
	default:
		return nil
	}
}
