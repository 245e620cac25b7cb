package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ToFloat implements Cypher's toFloat(): numbers convert numerically,
// strings are parsed (returning NULL on parse failure), NULL stays NULL.
func ToFloat(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Float(float64(v.i)), nil
	case KindFloat:
		return v, nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return Null, nil
		}
		return Float(f), nil
	default:
		return Null, fmt.Errorf("toFloat: cannot convert %s", v.kind)
	}
}

// ToInteger implements Cypher's toInteger(): floats truncate toward zero,
// strings are parsed (returning NULL on parse failure), NULL stays NULL.
func ToInteger(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return v, nil
	case KindFloat:
		f := v.f()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Null, nil
		}
		return Int(int64(f)), nil
	case KindString:
		s := strings.TrimSpace(v.s)
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Int(int64(f)), nil
		}
		return Null, nil
	case KindBool:
		if v.b() {
			return Int(1), nil
		}
		return Int(0), nil
	default:
		return Null, fmt.Errorf("toInteger: cannot convert %s", v.kind)
	}
}

// ToString implements Cypher's toString() for scalar values.
func ToString(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindString:
		return v, nil
	case KindBool, KindInt, KindFloat, KindDuration:
		s := v.String()
		return String_(s), nil
	case KindDateTime:
		return String_(v.t().Format(time.RFC3339Nano)), nil
	default:
		return Null, fmt.Errorf("toString: cannot convert %s", v.kind)
	}
}

// ToBoolean implements Cypher's toBoolean().
func ToBoolean(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindBool:
		return v, nil
	case KindString:
		switch strings.ToLower(strings.TrimSpace(v.s)) {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		default:
			return Null, nil
		}
	case KindInt:
		return Bool(v.i != 0), nil
	default:
		return Null, fmt.Errorf("toBoolean: cannot convert %s", v.kind)
	}
}

// ParseDateTime parses a DATETIME from a string, accepting RFC 3339 with or
// without a time component ("2023-04-01", "2023-04-01T12:30:00Z").
func ParseDateTime(s string) (Value, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		time.RFC3339Nano,
		time.RFC3339,
		"2006-01-02T15:04:05",
		"2006-01-02 15:04:05",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return DateTime(t), nil
		}
	}
	return Null, fmt.Errorf("datetime: cannot parse %q", s)
}

// ParseDuration parses a DURATION from either a Go duration string ("72h")
// or a restricted ISO-8601 form ("P2D", "PT12H", "P1DT6H30M").
func ParseDuration(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Null, fmt.Errorf("duration: empty string")
	}
	if s[0] == 'P' || (len(s) > 1 && s[0] == '-' && s[1] == 'P') {
		d, err := parseISODuration(s)
		if err != nil {
			return Null, err
		}
		return Duration(d), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return Null, fmt.Errorf("duration: cannot parse %q", s)
	}
	return Duration(d), nil
}

func parseISODuration(s string) (time.Duration, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if !strings.HasPrefix(s, "P") {
		return 0, fmt.Errorf("duration: cannot parse %q", s)
	}
	s = s[1:]
	var total time.Duration
	inTime := false
	num := ""
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9' || r == '.':
			num += string(r)
		case r == 'T':
			inTime = true
		default:
			if num == "" {
				return 0, fmt.Errorf("duration: missing number before %c", r)
			}
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("duration: bad number %q", num)
			}
			num = ""
			var unit time.Duration
			switch {
			case r == 'W':
				unit = 7 * 24 * time.Hour
			case r == 'D':
				unit = 24 * time.Hour
			case r == 'H' && inTime:
				unit = time.Hour
			case r == 'M' && inTime:
				unit = time.Minute
			case r == 'M' && !inTime:
				unit = 30 * 24 * time.Hour // calendar month approximated
			case r == 'S' && inTime:
				unit = time.Second
			case r == 'Y':
				unit = 365 * 24 * time.Hour // calendar year approximated
			default:
				return 0, fmt.Errorf("duration: unknown unit %c", r)
			}
			total += time.Duration(f * float64(unit))
		}
	}
	if num != "" {
		return 0, fmt.Errorf("duration: trailing number %q", num)
	}
	if neg {
		total = -total
	}
	return total, nil
}
