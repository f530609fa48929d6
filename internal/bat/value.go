// Package bat implements a MonetDB-style column store substrate: typed
// column vectors (the tails of binary association tables), virtual object
// identifiers, positional gathers (leftfetchjoin), multi-key sort indexes,
// and vectorized arithmetic kernels.
//
// A BAT (binary association table) in MonetDB is a two-column table of
// (OID, value) pairs. As in modern MonetDB, the OID head is virtual: it is
// the dense sequence 0..n-1 and never materialized. A relation is a list of
// BATs that share the same virtual head, so the i-th tuple is obtained by
// concatenating the i-th tail value of every BAT.
package bat

import (
	"fmt"
	"strconv"
)

// Type identifies the domain of a column tail.
type Type uint8

const (
	// Float is a 64-bit floating point column (the numeric workhorse).
	Float Type = iota
	// Int is a 64-bit signed integer column (also used for dates/times
	// encoded as epoch seconds, mirroring MonetDB's daytime encoding).
	Int
	// String is a variable-length character column.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Float:
		return "DOUBLE"
	case Int:
		return "BIGINT"
	case String:
		return "VARCHAR"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Numeric reports whether columns of this type can participate in the
// application part of a relational matrix operation.
func (t Type) Numeric() bool { return t == Float || t == Int }

// Value is a single cell: a tagged union over the supported domains.
// The zero Value is the Float 0.0. Value is comparable and can be used as a
// map key (e.g., for hash joins over single attributes).
type Value struct {
	Type Type
	F    float64
	I    int64
	S    string
}

// FloatValue wraps a float64.
func FloatValue(f float64) Value { return Value{Type: Float, F: f} }

// IntValue wraps an int64.
func IntValue(i int64) Value { return Value{Type: Int, I: i} }

// StringValue wraps a string.
func StringValue(s string) Value { return Value{Type: String, S: s} }

// AsFloat converts a numeric value to float64. String values yield 0.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case Float:
		return v.F
	case Int:
		return float64(v.I)
	}
	return 0
}

// String renders the value the way the result printer does.
func (v Value) String() string {
	switch v.Type {
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Int:
		return strconv.FormatInt(v.I, 10)
	case String:
		return v.S
	}
	return "?"
}

// Equal reports value equality (types must match).
func (v Value) Equal(w Value) bool {
	if v.Type != w.Type {
		return false
	}
	switch v.Type {
	case Float:
		return v.F == w.F
	case Int:
		return v.I == w.I
	case String:
		return v.S == w.S
	}
	return false
}
