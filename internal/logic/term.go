// Package logic implements the formal specification language of FVN:
// many-sorted first-order logic with inductive definitions, in the style of
// the PVS encodings used by the paper (§3.1). NDlog programs translate into
// theories of this package (arc 4 of Figure 1), the theorem prover in
// internal/prover operates on its sequents (arc 5), and component models
// generate specifications in it (arc 2).
package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Sort names the type of a term, mirroring the PVS sorts used in the paper's
// encodings (Node, Metric, Path, Time, ...). Sorts are nominal; the prover
// treats equal names as equal sorts.
type Sort string

// Common sorts used by the FVN translations.
const (
	SortNode   Sort = "Node"
	SortMetric Sort = "Metric"
	SortPath   Sort = "Path"
	SortTime   Sort = "Time"
	SortRoute  Sort = "Route"
	SortBool   Sort = "bool"
	SortInt    Sort = "int"
	SortString Sort = "string"
	SortAny    Sort = "Any"
)

// Term is a first-order term: a variable, a constant, or a function
// application.
type Term interface {
	isTerm()
	// String renders the term in PVS-like concrete syntax.
	String() string
}

// Var is a term variable. Variables are identified by name; the prover
// generates fresh names by suffixing. Sort is presentation data: equality
// and hashing compare names only.
type Var struct {
	Name string
	Sort Sort
}

// Const is a literal constant drawn from the shared value domain.
type Const struct {
	Val value.V
}

// App is a function application, including arithmetic (+, -, *) and the
// NDlog builtins (f_init, f_concatPath, f_inPath, ...).
type App struct {
	Fn   string
	Args []Term
}

func (Var) isTerm()   {}
func (Const) isTerm() {}
func (App) isTerm()   {}

func (v Var) String() string { return v.Name }

func (c Const) String() string {
	if c.Val.K == value.KindStr {
		return fmt.Sprintf("%q", c.Val.S)
	}
	return c.Val.String()
}

func (a App) String() string {
	if len(a.Args) == 2 && isInfix(a.Fn) {
		return "(" + a.Args[0].String() + a.Fn + a.Args[1].String() + ")"
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Fn + "(" + strings.Join(parts, ",") + ")"
}

func isInfix(fn string) bool {
	switch fn {
	case "+", "-", "*", "/", "%":
		return true
	}
	return false
}

// isBinaryOp covers arithmetic, comparison, and boolean operators
// evaluable by the shared value domain.
func isBinaryOp(fn string) bool {
	if isInfix(fn) {
		return true
	}
	switch fn {
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		return true
	}
	return false
}

// V is shorthand for an untyped variable term.
func V(name string) Var { return Var{Name: name, Sort: SortAny} }

// TV is shorthand for a typed variable term.
func TV(name string, s Sort) Var { return Var{Name: name, Sort: s} }

// IntT is shorthand for an integer constant term.
func IntT(i int64) Const { return Const{Val: value.Int(i)} }

// StrT is shorthand for a string constant term.
func StrT(s string) Const { return Const{Val: value.Str(s)} }

// AddrT is shorthand for a node-address constant term.
func AddrT(s string) Const { return Const{Val: value.Addr(s)} }

// BoolT is shorthand for a boolean constant term.
func BoolT(b bool) Const { return Const{Val: value.Bool(b)} }

// Fn builds a function application term.
func Fn(name string, args ...Term) App { return App{Fn: name, Args: args} }

// TermEqual reports structural equality of two terms.
func TermEqual(a, b Term) bool {
	switch x := a.(type) {
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Const:
		y, ok := b.(Const)
		return ok && x.Val.Equal(y.Val)
	case App:
		y, ok := b.(App)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !TermEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// TermVars adds the free variables of t to the set.
func TermVars(t Term, set map[string]Sort) {
	switch x := t.(type) {
	case Var:
		set[x.Name] = x.Sort
	case App:
		for _, a := range x.Args {
			TermVars(a, set)
		}
	}
}

// IsGround reports whether t contains no variables.
func IsGround(t Term) bool {
	switch x := t.(type) {
	case Var:
		return false
	case App:
		for _, a := range x.Args {
			if !IsGround(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// EvalGround evaluates a ground term using the builtin function library.
// It fails if the term contains a variable or an uninterpreted function.
func EvalGround(t Term) (value.V, error) {
	switch x := t.(type) {
	case Const:
		return x.Val, nil
	case Var:
		return value.V{}, fmt.Errorf("logic: term contains variable %s", x.Name)
	case App:
		args := make([]value.V, len(x.Args))
		for i, a := range x.Args {
			v, err := EvalGround(a)
			if err != nil {
				return value.V{}, err
			}
			args[i] = v
		}
		if isBinaryOp(x.Fn) && len(args) == 2 {
			return value.ApplyBinary(x.Fn, args[0], args[1])
		}
		if value.IsBuiltin(x.Fn) {
			return value.Apply(x.Fn, args)
		}
		return value.V{}, fmt.Errorf("logic: uninterpreted function %s", x.Fn)
	}
	return value.V{}, fmt.Errorf("logic: unknown term")
}

// SortedVarNames returns the variable names of a set in sorted order, for
// deterministic output.
func SortedVarNames(set map[string]Sort) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
