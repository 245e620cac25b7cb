package value

import "math"

// Equal implements Cypher value equality with ternary logic: comparing NULL
// with anything yields NULL (unknown). INTEGER and FLOAT compare numerically
// across kinds. Lists compare element-wise, maps key-wise. Entity references
// compare by kind and identifier. The result is reported as (equal, known).
func Equal(a, b Value) (eq bool, known bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return false, false
	}
	if a.IsNumber() && b.IsNumber() {
		return numericEqual(a, b), true
	}
	if a.kind != b.kind {
		return false, true
	}
	switch a.kind {
	case KindBool:
		return a.b() == b.b(), true
	case KindString:
		return a.s == b.s, true
	case KindDateTime:
		return a.t().Equal(b.t()), true
	case KindDuration:
		return a.i == b.i, true
	case KindNode, KindRelationship:
		return a.i == b.i, true
	case KindList:
		al, bl := a.list(), b.list()
		if len(al) != len(bl) {
			return false, true
		}
		unknown := false
		for i := range al {
			e, k := Equal(al[i], bl[i])
			if !k {
				unknown = true
				continue
			}
			if !e {
				return false, true
			}
		}
		if unknown {
			return false, false
		}
		return true, true
	case KindMap:
		am, bm := a.m(), b.m()
		if len(am) != len(bm) {
			return false, true
		}
		unknown := false
		for k, av := range am {
			bv, ok := bm[k]
			if !ok {
				return false, true
			}
			e, kn := Equal(av, bv)
			if !kn {
				unknown = true
				continue
			}
			if !e {
				return false, true
			}
		}
		if unknown {
			return false, false
		}
		return true, true
	default:
		return false, true
	}
}

func numericEqual(a, b Value) bool {
	if a.kind == KindInt && b.kind == KindInt {
		return a.i == b.i
	}
	af, _ := a.NumberAsFloat()
	bf, _ := b.NumberAsFloat()
	return af == bf
}

// SameValue reports strict sameness usable for grouping keys and DISTINCT:
// unlike Equal, NULL is the same as NULL, and NaN is the same as NaN.
func SameValue(a, b Value) bool {
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	if a.IsNumber() && b.IsNumber() {
		af, _ := a.NumberAsFloat()
		bf, _ := b.NumberAsFloat()
		if math.IsNaN(af) && math.IsNaN(bf) {
			return a.kind == b.kind
		}
		if a.kind != b.kind {
			return false
		}
		return numericEqual(a, b)
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindList:
		al, bl := a.list(), b.list()
		if len(al) != len(bl) {
			return false
		}
		for i := range al {
			if !SameValue(al[i], bl[i]) {
				return false
			}
		}
		return true
	case KindMap:
		am, bm := a.m(), b.m()
		if len(am) != len(bm) {
			return false
		}
		for k, av := range am {
			bv, ok := bm[k]
			if !ok || !SameValue(av, bv) {
				return false
			}
		}
		return true
	default:
		eq, known := Equal(a, b)
		return known && eq
	}
}

// kindOrder assigns each kind a rank for the cross-kind total order used by
// ORDER BY, following the openCypher ordering: maps < nodes < relationships
// < lists < strings < booleans < numbers < datetimes < durations < null.
func kindOrder(k Kind) int {
	switch k {
	case KindMap:
		return 0
	case KindNode:
		return 1
	case KindRelationship:
		return 2
	case KindList:
		return 3
	case KindString:
		return 4
	case KindBool:
		return 5
	case KindInt, KindFloat:
		return 6
	case KindDateTime:
		return 7
	case KindDuration:
		return 8
	case KindNull:
		return 9
	default:
		return 10
	}
}

// Compare imposes a total order over all values, used by ORDER BY, min and
// max. Within numbers, INTEGER and FLOAT compare numerically; across kinds
// the openCypher kind ranking applies and NULL sorts last.
func Compare(a, b Value) int {
	ka, kb := kindOrder(a.kind), kindOrder(b.kind)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case a.b() == b.b():
			return 0
		case !a.b():
			return -1
		default:
			return 1
		}
	case KindInt, KindFloat:
		return compareNumeric(a, b)
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	case KindDateTime:
		switch {
		case a.t().Before(b.t()):
			return -1
		case a.t().After(b.t()):
			return 1
		default:
			return 0
		}
	case KindDuration, KindNode, KindRelationship:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	case KindList:
		al, bl := a.list(), b.list()
		n := min(len(al), len(bl))
		for i := 0; i < n; i++ {
			if c := Compare(al[i], bl[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(al) < len(bl):
			return -1
		case len(al) > len(bl):
			return 1
		default:
			return 0
		}
	case KindMap:
		// Maps are ordered by size then by sorted key sequence; a stable
		// arbitrary-but-deterministic order is all ORDER BY requires.
		am, bm := a.m(), b.m()
		if len(am) != len(bm) {
			if len(am) < len(bm) {
				return -1
			}
			return 1
		}
		ak, bk := sortedKeys(am), sortedKeys(bm)
		for i := range ak {
			if ak[i] != bk[i] {
				if ak[i] < bk[i] {
					return -1
				}
				return 1
			}
		}
		for _, k := range ak {
			if c := Compare(am[k], bm[k]); c != 0 {
				return c
			}
		}
		return 0
	default:
		return 0
	}
}

func compareNumeric(a, b Value) int {
	if a.kind == KindInt && b.kind == KindInt {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	af, _ := a.NumberAsFloat()
	bf, _ := b.NumberAsFloat()
	// NaN sorts after all other numbers for determinism.
	an, bn := math.IsNaN(af), math.IsNaN(bf)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

func sortedKeys(m map[string]Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}

// Less3 applies ternary ordering semantics for the < operator: if either
// operand is NULL, or the operands are of incomparable kinds, the result is
// unknown.
func Less3(a, b Value) (less bool, known bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return false, false
	}
	if a.IsNumber() && b.IsNumber() {
		return compareNumeric(a, b) < 0, true
	}
	if a.kind != b.kind {
		return false, false
	}
	switch a.kind {
	case KindString, KindDateTime, KindDuration, KindBool, KindList:
		return Compare(a, b) < 0, true
	default:
		return false, false
	}
}

// HashKey returns a string that is identical for values that are SameValue,
// usable as a Go map key for grouping and DISTINCT.
func (v Value) HashKey() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindBool:
		if v.b() {
			return "\x01t"
		}
		return "\x01f"
	case KindInt:
		return "\x02" + itoa(v.i)
	case KindFloat:
		f := v.f()
		if f == 0 {
			f = 0 // normalize -0.0 so it groups with +0.0
		}
		return "\x03" + ftoa(f)
	case KindString:
		return "\x04" + v.s
	case KindDateTime:
		t := v.t()
		return "\x05" + itoa(t.UnixNano()) + t.Location().String()
	case KindDuration:
		return "\x06" + itoa(v.i)
	case KindNode:
		return "\x07" + itoa(v.i)
	case KindRelationship:
		return "\x08" + itoa(v.i)
	case KindList:
		out := "\x09"
		for _, e := range v.list() {
			k := e.HashKey()
			out += itoa(int64(len(k))) + ":" + k
		}
		return out
	case KindMap:
		out := "\x0a"
		m := v.m()
		for _, k := range sortedKeys(m) {
			vk := m[k].HashKey()
			out += itoa(int64(len(k))) + ":" + k + itoa(int64(len(vk))) + ":" + vk
		}
		return out
	default:
		return "\x0b"
	}
}

func itoa(i int64) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	var buf [24]byte
	pos := len(buf)
	u := uint64(i)
	if neg {
		u = uint64(-i)
	}
	for u > 0 {
		pos--
		buf[pos] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

func ftoa(f float64) string {
	bits := math.Float64bits(f)
	var buf [16]byte
	for i := 0; i < 16; i++ {
		buf[i] = "0123456789abcdef"[(bits>>(60-4*i))&0xf]
	}
	return string(buf[:])
}
