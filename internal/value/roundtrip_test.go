package value

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestValueSize pins the size of a Value. Every stored property carries
// one, so growing it grows every record of the graph store.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 48 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want <= 48", got)
	}
}

// roundTripValues covers every Kind, the float edge cases, DateTime at both
// ends of the year range and in a non-UTC zone, and nested lists and maps.
func roundTripValues() []Value {
	ist := time.FixedZone("IST", 5*3600+1800)
	return []Value{
		Null,
		Bool(false),
		Bool(true),
		Int(0),
		Int(-42),
		Int(math.MaxInt64),
		Float(1.5),
		Float(math.Copysign(0, -1)),
		Float(0),
		Float(math.NaN()),
		Float(math.Inf(1)),
		Float(math.Inf(-1)),
		Str(""),
		Str("héllo"),
		DateTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
		DateTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
		DateTime(time.Date(2024, 3, 10, 8, 30, 0, 500, ist)),
		DateTime(time.Date(2024, 3, 10, 3, 0, 0, 500, time.UTC)),
		Duration(90 * time.Minute),
		List(),
		List(Int(1), List(Float(2.5), Str("x")), Map(map[string]Value{"a": Null})),
		Map(map[string]Value{}),
		Map(map[string]Value{"a": List(Int(1), Int(2)), "b": Map(map[string]Value{"c": DateTime(time.Date(2024, 3, 10, 8, 30, 0, 500, ist))})}),
		Node(7),
		Relationship(9),
	}
}

// TestValueRoundTripTable checks HashKey, JSON, Go() and String() of every
// table value, and Compare and Equal over every pair, against literals
// recorded from the 104-byte layout the compact Value replaced. Compare rows
// use '-', '0', '+'; Equal rows use 't', 'f' and '?' for unknown.
func TestValueRoundTripTable(t *testing.T) {
	want := []struct{ hash, json, goVal, str string }{
		{"\x00", "null", "<nil>:<nil>", "null"},
		{"\x01f", "false", "bool:false", "false"},
		{"\x01t", "true", "bool:true", "true"},
		{"\x020", "{\"$int\":\"0\"}", "int64:0", "0"},
		{"\x02-42", "{\"$int\":\"-42\"}", "int64:-42", "-42"},
		{"\x029223372036854775807", "{\"$int\":\"9223372036854775807\"}", "int64:9223372036854775807", "9223372036854775807"},
		{"\x033ff8000000000000", "{\"$float\":1.5}", "float64:1.5", "1.5"},
		{"\x030000000000000000", "{\"$float\":-0}", "float64:-0", "-0.0"},
		{"\x030000000000000000", "{\"$float\":0}", "float64:0", "0.0"},
		{"\x037ff8000000000001", "{\"$float\":\"NaN\"}", "float64:NaN", "NaN"},
		{"\x037ff0000000000000", "{\"$float\":\"+Inf\"}", "float64:+Inf", "Infinity"},
		{"\x03fff0000000000000", "{\"$float\":\"-Inf\"}", "float64:-Inf", "-Infinity"},
		{"\x04", "\"\"", "string:", "\"\""},
		{"\x04héllo", "\"héllo\"", "string:héllo", "\"héllo\""},
		{"\x05-6795364578871345152UTC", "{\"$datetime\":\"0001-01-01T00:00:00Z\"}", "time.Time:0001-01-01 00:00:00 +0000 UTC", "0001-01-01T00:00:00Z"},
		{"\x05-4852116231933722625UTC", "{\"$datetime\":\"9999-12-31T23:59:59.999999999Z\"}", "time.Time:9999-12-31 23:59:59.999999999 +0000 UTC", "9999-12-31T23:59:59.999999999Z"},
		{"\x051710039600000000500IST", "{\"$datetime\":\"2024-03-10T08:30:00.0000005+05:30\"}", "time.Time:2024-03-10 08:30:00.0000005 +0530 IST", "2024-03-10T08:30:00.0000005+05:30"},
		{"\x051710039600000000500UTC", "{\"$datetime\":\"2024-03-10T03:00:00.0000005Z\"}", "time.Time:2024-03-10 03:00:00.0000005 +0000 UTC", "2024-03-10T03:00:00.0000005Z"},
		{"\x065400000000000", "{\"$duration\":\"1h30m0s\"}", "time.Duration:1h30m0s", "1h30m0s"},
		{"\t", "[]", "[]interface {}:[]", "[]"},
		{"\t2:\x02125:\t17:\x0340040000000000002:\x04x7:\n1:a1:\x00", "[{\"$int\":\"1\"},[{\"$float\":2.5},\"x\"],{\"$map\":{\"a\":null}}]", "[]interface {}:[1 [2.5 x] map[a:<nil>]]", "[1, [2.5, \"x\"], {a: null}]"},
		{"\n", "{\"$map\":{}}", "map[string]interface {}:map[]", "{}"},
		{"\n1:a9:\t2:\x0212:\x0221:b30:\n1:c23:\x051710039600000000500IST", "{\"$map\":{\"a\":[{\"$int\":\"1\"},{\"$int\":\"2\"}],\"b\":{\"$map\":{\"c\":{\"$datetime\":\"2024-03-10T08:30:00.0000005+05:30\"}}}}}", "map[string]interface {}:map[a:[1 2] b:map[c:2024-03-10 08:30:00.0000005 +0530 IST]]", "{a: [1, 2], b: {c: 2024-03-10T08:30:00.0000005+05:30}}"},
		{"\a7", "{\"$node\":\"7\"}", "int64:7", "Node(7)"},
		{"\b9", "{\"$rel\":\"9\"}", "int64:9", "Rel(9)"},
	}
	wantCompare := []string{
		"0++++++++++++++++++++++++",
		"-0----------++-----++++++",
		"-+0---------++-----++++++",
		"-++0+--00--+++-----++++++",
		"-++-0------+++-----++++++",
		"-++++0+++--+++-----++++++",
		"-++++-0++--+++-----++++++",
		"-++0+--00--+++-----++++++",
		"-++0+--00--+++-----++++++",
		"-++++++++0++++-----++++++",
		"-++++++++-0+++-----++++++",
		"-++--------0++-----++++++",
		"------------0------++++++",
		"------------+0-----++++++",
		"-+++++++++++++0----++++++",
		"-++++++++++++++0++-++++++",
		"-++++++++++++++-00-++++++",
		"-++++++++++++++-00-++++++",
		"-+++++++++++++++++0++++++",
		"-------------------0-++++",
		"-------------------+0++++",
		"---------------------0---",
		"---------------------+0--",
		"---------------------++0-",
		"---------------------+++0",
	}
	wantEqual := []string{
		"?????????????????????????",
		"?tfffffffffffffffffffffff",
		"?ftffffffffffffffffffffff",
		"?fftfffttffffffffffffffff",
		"?ffftffffffffffffffffffff",
		"?fffftfffffffffffffffffff",
		"?ffffftffffffffffffffffff",
		"?fftfffttffffffffffffffff",
		"?fftfffttffffffffffffffff",
		"?ffffffffffffffffffffffff",
		"?ffffffffftffffffffffffff",
		"?fffffffffftfffffffffffff",
		"?ffffffffffftffffffffffff",
		"?fffffffffffftfffffffffff",
		"?ffffffffffffftffffffffff",
		"?fffffffffffffftfffffffff",
		"?fffffffffffffffttfffffff",
		"?fffffffffffffffttfffffff",
		"?ffffffffffffffffftffffff",
		"?fffffffffffffffffftfffff",
		"?fffffffffffffffffff?ffff",
		"?fffffffffffffffffffftfff",
		"?ffffffffffffffffffffftff",
		"?fffffffffffffffffffffftf",
		"?ffffffffffffffffffffffft",
	}
	vs := roundTripValues()
	if len(want) != len(vs) || len(wantCompare) != len(vs) || len(wantEqual) != len(vs) {
		t.Fatalf("table sizes differ: %d values, %d/%d/%d rows", len(vs), len(want), len(wantCompare), len(wantEqual))
	}
	for i, v := range vs {
		w := want[i]
		if got := v.HashKey(); got != w.hash {
			t.Errorf("value %d (%s): HashKey = %q, want %q", i, v, got, w.hash)
		}
		j, err := json.Marshal(ToJSON(v))
		if err != nil {
			t.Fatalf("value %d: marshal: %v", i, err)
		}
		if string(j) != w.json {
			t.Errorf("value %d (%s): JSON = %s, want %s", i, v, j, w.json)
		}
		if got := fmt.Sprintf("%T:%v", v.Go(), v.Go()); got != w.goVal {
			t.Errorf("value %d (%s): Go() = %s, want %s", i, v, got, w.goVal)
		}
		if got := v.String(); got != w.str {
			t.Errorf("value %d: String() = %s, want %s", i, got, w.str)
		}
		// JSON and Go() both round-trip back to an equivalent value.
		var raw any
		if err := json.Unmarshal(j, &raw); err != nil {
			t.Fatalf("value %d: unmarshal: %v", i, err)
		}
		back, err := FromJSON(raw)
		if err != nil {
			t.Fatalf("value %d: FromJSON: %v", i, err)
		}
		// JSON keeps a DateTime's offset but not its zone name, so the
		// round trip is checked by rendering and order, not HashKey.
		if back.String() != w.str || Compare(back, v) != 0 {
			t.Errorf("value %d: JSON round trip gave %s", i, back)
		}
		if g := FromGo(v.Go()); v.Kind() != KindNode && v.Kind() != KindRelationship &&
			(g.HashKey() != w.hash || g.String() != w.str) {
			t.Errorf("value %d: Go round trip gave %s (%q)", i, g, g.HashKey())
		}
	}
	for i, a := range vs {
		cmp := make([]byte, len(vs))
		eq := make([]byte, len(vs))
		for j, b := range vs {
			cmp[j] = "-0+"[Compare(a, b)+1]
			switch e, known := Equal(a, b); {
			case !known:
				eq[j] = '?'
			case e:
				eq[j] = 't'
			default:
				eq[j] = 'f'
			}
		}
		if string(cmp) != wantCompare[i] {
			t.Errorf("Compare row %d (%s) = %s, want %s", i, a, cmp, wantCompare[i])
		}
		if string(eq) != wantEqual[i] {
			t.Errorf("Equal row %d (%s) = %s, want %s", i, a, eq, wantEqual[i])
		}
	}
}
