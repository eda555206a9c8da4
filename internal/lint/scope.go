package lint

import (
	"slices"
	"strings"
)

// Rule scopes. Seven rules report only in the module packages scopeTable
// names for them; the rest report everywhere. Facts are computed in every
// package regardless of scope: only findings are scoped. Each scope's reason
// is on its rule name.
const (
	// determinism: the seed-pure simulation packages — everything the
	// paper's §6 figures are computed from, plus the byte-identical event
	// stream, WAL, snapshot and fault plan. Code there must be a pure
	// function of its inputs and an injected seed: a wall-clock read makes a
	// figure or a golden trace irreproducible in a way no test can pin down.
	// (The process-global rand and wall-clock-seeded RNG checks run
	// everywhere.)
	ruleDeterminism = "determinism"
	// seedflow: every package whose randomness must replay from an injected
	// seed — the determinism packages plus internal/fault.
	ruleSeedFlow = "seedflow"
	// floatcompare: the rank-ordering and statistics packages, where a float
	// == decides which candidate wins. Two estimates that differ only in the
	// last ulp must be a tie, or PRO's accept/reject decisions flip between
	// platforms.
	ruleFloatCompare = "floatcompare"
	// errdiscipline: the wire boundary, where a swallowed error silently
	// turns a lost measurement into a wedged session or a double-counted
	// report.
	ruleErrDiscipline = "errdiscipline"
	// goroutinelifecycle: the packages whose goroutines must be provably
	// joinable or cancellable — long-lived network goroutines, worker
	// fan-out, async evaluation plumbing. A leak there corrupts a later
	// measurement or wedges shutdown.
	ruleLifecycle = "goroutinelifecycle"
	// ctxflow: the packages hosting goroutines that outlive a single call,
	// where one uncancellable channel park wedges shutdown or leaks the
	// goroutine.
	ruleCtxFlow = "ctxflow"
	// boundedres: the packages with connection handlers, whose per-request
	// growth must hit an enforced ceiling.
	ruleBoundedRes = "boundedres"
)

// scopeTable maps each module package (and its subpackages) to the scoped
// rules that report in it.
var scopeTable = map[string][]string{
	"paratune/internal/baseline": {ruleDeterminism, ruleSeedFlow, ruleFloatCompare},
	// The fault plan must replay byte-identically from a seed.
	"paratune/internal/chaos":   {ruleDeterminism, ruleSeedFlow, ruleLifecycle, ruleCtxFlow},
	"paratune/internal/cluster": {ruleDeterminism, ruleSeedFlow, ruleLifecycle, ruleCtxFlow},
	"paratune/internal/core":    {ruleDeterminism, ruleSeedFlow, ruleFloatCompare, ruleLifecycle},
	"paratune/internal/dist":    {ruleDeterminism, ruleSeedFlow},
	// Events carry virtual time only: same-seed traces are byte-identical.
	"paratune/internal/event":      {ruleDeterminism, ruleSeedFlow},
	"paratune/internal/experiment": {ruleDeterminism, ruleSeedFlow},
	// Injectors run beside real servers, so no wall-clock rule.
	"paratune/internal/fault": {ruleSeedFlow},
	"paratune/internal/feddb": {ruleLifecycle, ruleCtxFlow, ruleBoundedRes},
	// The encoder the byte-identical WAL and snapshot files are built with.
	"paratune/internal/frame":   {ruleDeterminism, ruleSeedFlow},
	"paratune/internal/harmony": {ruleErrDiscipline, ruleLifecycle, ruleCtxFlow, ruleBoundedRes},
	// Same-seed runs write byte-identical WAL and snapshot files.
	"paratune/internal/measuredb": {ruleDeterminism, ruleSeedFlow},
	"paratune/internal/noise":     {ruleDeterminism, ruleSeedFlow},
	"paratune/internal/objective": {ruleDeterminism, ruleSeedFlow},
	// The min-of-K estimator.
	"paratune/internal/sample": {ruleDeterminism, ruleSeedFlow, ruleFloatCompare},
	"paratune/internal/space":  {ruleFloatCompare},
	"paratune/internal/stats":  {ruleDeterminism, ruleSeedFlow, ruleFloatCompare},
}

// inScope reports whether rule reports findings in the package at path. An
// external test package (path ending in _test) shares its package's scope.
func inScope(path, rule string) bool {
	path = strings.TrimSuffix(path, "_test")
	for p, rules := range scopeTable {
		if (path == p || strings.HasPrefix(path, p+"/")) && slices.Contains(rules, rule) {
			return true
		}
	}
	return false
}
