package value

import (
	"fmt"
	"math"
	"time"
)

// ErrType reports an arithmetic or conversion type error.
type ErrType struct {
	Op   string
	A, B Kind
}

func (e *ErrType) Error() string {
	if e.B == KindNull && e.A != KindNull {
		return fmt.Sprintf("invalid operand for %s: %s", e.Op, e.A)
	}
	return fmt.Sprintf("invalid operands for %s: %s, %s", e.Op, e.A, e.B)
}

func typeErr(op string, a, b Value) error { return &ErrType{Op: op, A: a.kind, B: b.kind} }

// Add implements the Cypher + operator: numeric addition with int/float
// promotion, string concatenation, list concatenation, list+element append,
// and datetime/duration arithmetic. NULL propagates.
func Add(a, b Value) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i + b.i), nil
	case a.IsNumber() && b.IsNumber():
		af, _ := a.NumberAsFloat()
		bf, _ := b.NumberAsFloat()
		return Float(af + bf), nil
	case a.kind == KindString && b.kind == KindString:
		return String_(a.s + b.s), nil
	case a.kind == KindList && b.kind == KindList:
		out := make([]Value, 0, len(a.list())+len(b.list()))
		out = append(out, a.list()...)
		out = append(out, b.list()...)
		return ListOf(out), nil
	case a.kind == KindList:
		out := make([]Value, 0, len(a.list())+1)
		out = append(out, a.list()...)
		out = append(out, b)
		return ListOf(out), nil
	case b.kind == KindList:
		out := make([]Value, 0, len(b.list())+1)
		out = append(out, a)
		out = append(out, b.list()...)
		return ListOf(out), nil
	case a.kind == KindDateTime && b.kind == KindDuration:
		return DateTime(a.t().Add(time.Duration(b.i))), nil
	case a.kind == KindDuration && b.kind == KindDateTime:
		return DateTime(b.t().Add(time.Duration(a.i))), nil
	case a.kind == KindDuration && b.kind == KindDuration:
		return Duration(time.Duration(a.i + b.i)), nil
	default:
		return Null, typeErr("+", a, b)
	}
}

// Sub implements the Cypher - operator with NULL propagation.
func Sub(a, b Value) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i - b.i), nil
	case a.IsNumber() && b.IsNumber():
		af, _ := a.NumberAsFloat()
		bf, _ := b.NumberAsFloat()
		return Float(af - bf), nil
	case a.kind == KindDateTime && b.kind == KindDuration:
		return DateTime(a.t().Add(-time.Duration(b.i))), nil
	case a.kind == KindDateTime && b.kind == KindDateTime:
		return Duration(a.t().Sub(b.t())), nil
	case a.kind == KindDuration && b.kind == KindDuration:
		return Duration(time.Duration(a.i - b.i)), nil
	default:
		return Null, typeErr("-", a, b)
	}
}

// Mul implements the Cypher * operator with NULL propagation.
func Mul(a, b Value) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i * b.i), nil
	case a.IsNumber() && b.IsNumber():
		af, _ := a.NumberAsFloat()
		bf, _ := b.NumberAsFloat()
		return Float(af * bf), nil
	case a.kind == KindDuration && b.kind == KindInt:
		return Duration(time.Duration(a.i * b.i)), nil
	case a.kind == KindInt && b.kind == KindDuration:
		return Duration(time.Duration(a.i * b.i)), nil
	default:
		return Null, typeErr("*", a, b)
	}
}

// Div implements the Cypher / operator. Integer division truncates;
// dividing an integer by integer zero is an error, while float division by
// zero follows IEEE semantics. NULL propagates.
func Div(a, b Value) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.i == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return Int(a.i / b.i), nil
	case a.IsNumber() && b.IsNumber():
		af, _ := a.NumberAsFloat()
		bf, _ := b.NumberAsFloat()
		return Float(af / bf), nil
	case a.kind == KindDuration && b.kind == KindInt:
		if b.i == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return Duration(time.Duration(a.i / b.i)), nil
	default:
		return Null, typeErr("/", a, b)
	}
}

// Mod implements the Cypher % operator with NULL propagation.
func Mod(a, b Value) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.i == 0 {
			return Null, fmt.Errorf("modulo by zero")
		}
		return Int(a.i % b.i), nil
	case a.IsNumber() && b.IsNumber():
		af, _ := a.NumberAsFloat()
		bf, _ := b.NumberAsFloat()
		return Float(math.Mod(af, bf)), nil
	default:
		return Null, typeErr("%", a, b)
	}
}

// Pow implements the Cypher ^ operator with NULL propagation. The result is
// always a FLOAT, matching Neo4j.
func Pow(a, b Value) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	if !a.IsNumber() || !b.IsNumber() {
		return Null, typeErr("^", a, b)
	}
	af, _ := a.NumberAsFloat()
	bf, _ := b.NumberAsFloat()
	return Float(math.Pow(af, bf)), nil
}

// Neg implements unary minus with NULL propagation.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Int(-a.i), nil
	case KindFloat:
		return Float(-a.f()), nil
	case KindDuration:
		return Duration(time.Duration(-a.i)), nil
	default:
		return Null, typeErr("-", a, Null)
	}
}
