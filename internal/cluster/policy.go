package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file is the global orchestrator's remediation policy engine:
// declarative threshold/predicate rules over per-domain health signals,
// evaluated every heartbeat (once per epoch, before placement). The
// rules are data, not code —
//
//	when rack.failedDevices >= 1 -> drain
//	when row.unreachable == 1 -> migrate
//	when rack.repaired == 1 && rack.pressure <= 0.6 -> repatriate
//
// — so a study can sweep remediation on/off (or swap rule sets) without
// touching the control loop. Evaluation order is deterministic: rules
// in declaration order, domains in index order, so policy actions are
// part of the cluster's byte-identical output contract.

// ErrBadRule wraps every rule parse failure.
var ErrBadRule = errors.New("cluster: invalid policy rule")

// Signal is one per-domain health input a rule condition reads.
type Signal string

// The signal vocabulary. Rack scope reads the rack's own state; row
// scope aggregates its racks (dead = all dead, failedDevices = sum,
// pressure = row demand over live capacity, degraded = worst rack,
// repaired/draining = any rack).
const (
	// SigDead is 1 while the domain is killed (rack: dead; row: every
	// rack dead). "unreachable" parses as an alias.
	SigDead Signal = "dead"
	// SigDraining is 1 while the domain is draining.
	SigDraining Signal = "draining"
	// SigFailedDevices counts pooled devices the rack orchestrator
	// holds out of its pick set (failed, flapping, or drained).
	SigFailedDevices Signal = "failedDevices"
	// SigPressure is offered demand over effective capacity.
	SigPressure Signal = "pressure"
	// SigDegraded is the capacity fraction lost to a slow-CXL fault
	// (0 healthy, 0.6 when the rack serves 40% of line rate).
	SigDegraded Signal = "degraded"
	// SigRepaired is 1 on the heartbeat after a fault targeting the
	// domain physically repaired.
	SigRepaired Signal = "repaired"

	// Fleet-only signals (rule conditions over the whole cluster).

	// SigHeadroom is the fleet's spare-capacity fraction: 1 minus
	// offered demand over live effective capacity (negative when the
	// surviving fleet is overcommitted).
	SigHeadroom Signal = "headroom"
	// SigInflight counts displaced tenants: unplaced or currently
	// living away from home — the population whose moves are still
	// outstanding.
	SigInflight Signal = "inflight"
	// SigQueue is the repair-crew queue depth: struck faults still
	// waiting for a crew to start on them.
	SigQueue Signal = "queue"
)

func parseSignal(s string) (Signal, error) {
	switch s {
	case "dead", "unreachable":
		return SigDead, nil
	case "draining":
		return SigDraining, nil
	case "failedDevices":
		return SigFailedDevices, nil
	case "pressure":
		return SigPressure, nil
	case "degraded":
		return SigDegraded, nil
	case "repaired":
		return SigRepaired, nil
	case "headroom":
		return SigHeadroom, nil
	case "inflight":
		return SigInflight, nil
	case "queue":
		return SigQueue, nil
	}
	return "", fmt.Errorf("%w: unknown signal %q", ErrBadRule, s)
}

// fleetOnly reports whether a signal exists only at fleet scope.
func fleetOnly(s Signal) bool {
	return s == SigHeadroom || s == SigInflight || s == SigQueue
}

// Scope is the domain level a rule condition reads.
type Scope int

// Conditions read racks, rows, or the whole fleet. The order encodes
// specificity: a rule's action scope is its most specific condition
// scope (a pure-fleet rule acts on every rack).
const (
	ScopeRack Scope = iota
	ScopeRow
	ScopeFleet
)

// String names the scope as it appears in rule text.
func (s Scope) String() string {
	switch s {
	case ScopeRow:
		return "row"
	case ScopeFleet:
		return "fleet"
	}
	return "rack"
}

// Op is a comparison operator.
type Op string

// The comparison vocabulary.
const (
	OpLT Op = "<"
	OpLE Op = "<="
	OpGT Op = ">"
	OpGE Op = ">="
	OpEQ Op = "=="
	OpNE Op = "!="
)

func parseOp(s string) (Op, error) {
	switch Op(s) {
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return Op(s), nil
	}
	return "", fmt.Errorf("%w: unknown operator %q", ErrBadRule, s)
}

func (o Op) eval(a, b float64) bool {
	switch o {
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	}
	return false
}

// Action is the remediation a matched rule applies to the domain.
type Action string

// The action vocabulary.
const (
	// ActDrain evacuates the rack and marks it draining (maintenance
	// semantics; benign no-op on already-draining or dead racks — the
	// typed DrainRack errors make concurrent remediation safe).
	ActDrain Action = "drain"
	// ActMigrate moves the domain's resident tenants to the nearest
	// servable rack by path cost (the dead-rack evacuation: residents
	// of a killed rack are re-placed without waiting for repair).
	ActMigrate Action = "migrate"
	// ActRepatriate brings tenants homed in the domain back while the
	// home stays under the spill threshold.
	ActRepatriate Action = "repatriate"
	// ActReopen lifts a policy-initiated drain (operator drains are
	// left alone) and restarts the rack orchestrator.
	ActReopen Action = "reopen"
)

func parseAction(s string) (Action, error) {
	switch Action(s) {
	case ActDrain, ActMigrate, ActRepatriate, ActReopen:
		return Action(s), nil
	}
	return "", fmt.Errorf("%w: unknown action %q", ErrBadRule, s)
}

// Cond is one comparison: signal op value, read at a scope.
type Cond struct {
	Scope Scope
	Sig   Signal
	Op    Op
	Val   float64
}

// Rule is one parsed remediation rule: every condition (ANDed) must
// hold for the action to apply to the matched domain. Scope is the
// action scope — the most specific condition scope (fleet conditions
// may mix with rack or row ones; rack and row never mix). Limit, when
// positive, is the rule's token bucket: at most Limit state changes per
// heartbeat, refilled each epoch.
type Rule struct {
	Scope  Scope
	Conds  []Cond
	Action Action
	Limit  int

	text string
}

// String returns the rule's canonical text.
func (r Rule) String() string { return r.text }

// ParseRule parses one rule:
//
//	when <scope>.<signal> <op> <value> [&& <scope>.<signal> <op> <value>]... -> <action> [limit N/epoch]
//
// Scope is "rack", "row", or "fleet". Fleet conditions may join rack or
// row conditions (the action then applies at the narrower scope); rack
// and row conditions never mix. Tokens are whitespace-separated.
func ParseRule(s string) (Rule, error) {
	f := strings.Fields(s)
	rule := Rule{}
	// Optional trailing rate limit: "limit N/epoch".
	if len(f) >= 2 && f[len(f)-2] == "limit" {
		n, ok := strings.CutSuffix(f[len(f)-1], "/epoch")
		if !ok {
			return Rule{}, fmt.Errorf("%w: %q (want \"limit N/epoch\")", ErrBadRule, s)
		}
		lim, err := strconv.Atoi(n)
		if err != nil || lim < 1 {
			return Rule{}, fmt.Errorf("%w: bad rate limit %q (want a positive integer per epoch)", ErrBadRule, f[len(f)-1])
		}
		rule.Limit = lim
		f = f[:len(f)-2]
	}
	if len(f) < 5 || f[0] != "when" {
		return Rule{}, fmt.Errorf("%w: %q (want \"when <scope>.<signal> <op> <value> -> <action>\")", ErrBadRule, s)
	}
	if f[len(f)-2] != "->" {
		return Rule{}, fmt.Errorf("%w: %q missing \"-> <action>\"", ErrBadRule, s)
	}
	act, err := parseAction(f[len(f)-1])
	if err != nil {
		return Rule{}, err
	}
	rule.Action = act
	toks := f[1 : len(f)-2]
	rule.Scope = ScopeFleet
	scoped := false
	for len(toks) > 0 {
		if scoped {
			if toks[0] != "&&" {
				return Rule{}, fmt.Errorf("%w: %q (conditions join with &&)", ErrBadRule, s)
			}
			toks = toks[1:]
		}
		if len(toks) < 3 {
			return Rule{}, fmt.Errorf("%w: %q has a truncated condition", ErrBadRule, s)
		}
		scope, sigName, ok := strings.Cut(toks[0], ".")
		if !ok {
			return Rule{}, fmt.Errorf("%w: %q (want <scope>.<signal>)", ErrBadRule, toks[0])
		}
		var sc Scope
		switch scope {
		case "rack":
			sc = ScopeRack
		case "row":
			sc = ScopeRow
		case "fleet":
			sc = ScopeFleet
		default:
			return Rule{}, fmt.Errorf("%w: unknown scope %q (want rack|row|fleet)", ErrBadRule, scope)
		}
		sig, err := parseSignal(sigName)
		if err != nil {
			return Rule{}, err
		}
		if fleetOnly(sig) && sc != ScopeFleet {
			return Rule{}, fmt.Errorf("%w: signal %q exists only at fleet scope", ErrBadRule, sig)
		}
		// The action scope is the most specific condition scope; rack
		// and row conditions never share a rule (whose domain would the
		// action pick?).
		if sc != ScopeFleet {
			if rule.Scope != ScopeFleet && rule.Scope != sc {
				return Rule{}, fmt.Errorf("%w: %q mixes rack and row scopes", ErrBadRule, s)
			}
			rule.Scope = sc
		}
		op, err := parseOp(toks[1])
		if err != nil {
			return Rule{}, err
		}
		val, err := strconv.ParseFloat(toks[2], 64)
		if err != nil {
			return Rule{}, fmt.Errorf("%w: non-numeric threshold %q", ErrBadRule, toks[2])
		}
		rule.Conds = append(rule.Conds, Cond{Scope: sc, Sig: sig, Op: op, Val: val})
		scoped = true
		toks = toks[3:]
	}
	rule.text = strings.Join(strings.Fields(s), " ")
	return rule, nil
}

// Remediation is a parsed rule set, evaluated in declaration order each
// heartbeat. A nil *Remediation on the cluster config disables the
// policy engine entirely (faults are tolerated, never reacted to).
type Remediation struct {
	rules []Rule
}

// ParseRules parses one rule per line into a Remediation.
func ParseRules(lines ...string) (*Remediation, error) {
	rem := &Remediation{}
	for _, l := range lines {
		r, err := ParseRule(l)
		if err != nil {
			return nil, err
		}
		rem.rules = append(rem.rules, r)
	}
	return rem, nil
}

// Rules returns the rule list in evaluation order.
func (r *Remediation) Rules() []Rule {
	out := make([]Rule, len(r.rules))
	copy(out, r.rules)
	return out
}

// String renders the rule set one rule per line.
func (r *Remediation) String() string {
	texts := make([]string, len(r.rules))
	for i, rule := range r.rules {
		texts[i] = rule.text
	}
	return strings.Join(texts, "\n")
}

// DefaultRules is the stock remediation policy: evacuate killed
// domains, drain flapping or degraded racks, and — once the fault
// clears — reopen policy drains and bring exiles home while the home
// stays comfortably below the spill threshold.
func DefaultRules() *Remediation {
	r, err := ParseRules(
		"when rack.dead == 1 -> migrate",
		"when row.unreachable == 1 -> migrate",
		"when rack.failedDevices >= 1 -> drain",
		"when rack.degraded >= 0.5 -> drain",
		"when rack.repaired == 1 -> reopen",
		"when rack.repaired == 1 && rack.pressure <= 0.6 -> repatriate",
	)
	if err != nil {
		panic(err) // static rules cannot fail to parse
	}
	return r
}

// rackSignal evaluates a signal for one rack at the current heartbeat.
func (c *Cluster) rackSignal(sig Signal, idx, epoch int) float64 {
	r := c.racks[idx]
	switch sig {
	case SigDead:
		return b2f(r.dead)
	case SigDraining:
		return b2f(r.draining)
	case SigFailedDevices:
		return float64(r.Orch.FailedDevices())
	case SigPressure:
		return c.pressure(idx)
	case SigDegraded:
		return 1 - r.capScale
	case SigRepaired:
		return b2f(r.faultClearedAt == epoch)
	}
	return 0
}

// rowSignal aggregates a signal over a row's racks.
func (c *Cluster) rowSignal(sig Signal, row, epoch int) float64 {
	racks := c.rowRacks(row)
	switch sig {
	case SigDead, SigDraining:
		for _, i := range racks {
			if c.rackSignal(sig, i, epoch) == 0 {
				return 0
			}
		}
		return 1
	case SigFailedDevices:
		sum := 0.0
		for _, i := range racks {
			sum += c.rackSignal(sig, i, epoch)
		}
		return sum
	case SigPressure:
		return c.pressureOver(racks)
	case SigDegraded:
		worst := 0.0
		for _, i := range racks {
			if v := c.rackSignal(sig, i, epoch); v > worst {
				worst = v
			}
		}
		return worst
	case SigRepaired:
		for _, i := range racks {
			if c.rackSignal(sig, i, epoch) == 1 {
				return 1
			}
		}
		return 0
	}
	return 0
}

// fleetSignal evaluates a signal over the whole cluster.
func (c *Cluster) fleetSignal(sig Signal, epoch int) float64 {
	switch sig {
	case SigDead, SigDraining:
		n := 0.0
		for i := range c.racks {
			if c.rackSignal(sig, i, epoch) == 1 {
				n++
			}
		}
		return n
	case SigFailedDevices:
		sum := 0.0
		for i := range c.racks {
			sum += c.rackSignal(sig, i, epoch)
		}
		return sum
	case SigPressure:
		return c.pressureOver(c.allRacks())
	case SigHeadroom:
		return 1 - c.pressureOver(c.allRacks())
	case SigDegraded:
		worst := 0.0
		for i := range c.racks {
			if v := c.rackSignal(sig, i, epoch); v > worst {
				worst = v
			}
		}
		return worst
	case SigRepaired:
		for i := range c.racks {
			if c.rackSignal(sig, i, epoch) == 1 {
				return 1
			}
		}
		return 0
	case SigInflight:
		n := 0.0
		for _, t := range c.tenants {
			if t.rack < 0 || t.rack != t.Home {
				n++
			}
		}
		return n
	case SigQueue:
		queued, _ := c.repairQueue()
		return float64(queued)
	}
	return 0
}

// pressureOver is the row and fleet pressure signal: total offered
// demand on the listed racks over the effective capacity of the live
// ones among them (1 when none survives), summed in list order.
func (c *Cluster) pressureOver(racks []int) float64 {
	var offered, capacity float64
	for _, i := range racks {
		offered += c.offeredGbps(i)
		if r := c.racks[i]; !r.dead {
			capacity += r.effCapacityGbps() * r.capScale
		}
	}
	if capacity == 0 {
		return 1
	}
	return offered / capacity
}

// allRacks returns every rack index, index order.
func (c *Cluster) allRacks() []int {
	all := make([]int, len(c.racks))
	for i := range all {
		all[i] = i
	}
	return all
}

// rowRacks returns the rack indexes of a row, index order.
func (c *Cluster) rowRacks(row int) []int {
	var out []int
	for i := range c.racks {
		if c.cfg.Topo.RowOf(i) == row {
			out = append(out, i)
		}
	}
	return out
}

// runPolicy is the heartbeat evaluation: every rule against every
// domain of its scope, deterministic order, actions applied
// immediately. Action failures (draining an already-draining or dead
// rack, nowhere to migrate) are benign no-ops — remediation must stay
// safe under concurrent or repeated triggers — so only actions that
// changed something count.
func (c *Cluster) runPolicy(epoch int) int {
	acted := 0
	for _, rule := range c.cfg.Remediate.rules {
		// Each rule's token bucket refills at the heartbeat: Limit
		// state changes this epoch, unbounded when no limit was set.
		budget := rule.Limit
		if budget <= 0 {
			budget = -1
		}
		switch rule.Scope {
		case ScopeRack:
			for i := range c.racks {
				if c.ruleMatches(rule, i, epoch) {
					acted += c.applyAction(rule.Action, []int{i}, &budget)
				}
			}
		case ScopeRow:
			for row := 0; row < c.cfg.Topo.RowCount(); row++ {
				if c.ruleMatches(rule, row, epoch) {
					acted += c.applyAction(rule.Action, c.rowRacks(row), &budget)
				}
			}
		case ScopeFleet:
			// Pure fleet rules act on every rack in index order.
			if c.ruleMatches(rule, 0, epoch) {
				acted += c.applyAction(rule.Action, c.allRacks(), &budget)
			}
		}
	}
	return acted
}

// ruleMatches evaluates a rule's ANDed conditions for one domain of its
// action scope; fleet conditions ignore the domain index.
func (c *Cluster) ruleMatches(rule Rule, idx, epoch int) bool {
	for _, cond := range rule.Conds {
		var v float64
		switch cond.Scope {
		case ScopeFleet:
			v = c.fleetSignal(cond.Sig, epoch)
		case ScopeRow:
			v = c.rowSignal(cond.Sig, idx, epoch)
		default:
			v = c.rackSignal(cond.Sig, idx, epoch)
		}
		if !cond.Op.eval(v, cond.Val) {
			return false
		}
	}
	return true
}

// spend consumes one token from a rule budget. A negative budget is
// unlimited; an exhausted one counts the suppressed action so the
// throttling is visible in the epoch stats.
func (c *Cluster) spend(budget *int) bool {
	if *budget < 0 {
		return true
	}
	if *budget == 0 {
		c.remedThrottled++
		return false
	}
	*budget--
	return true
}

// applyAction applies one action to the matched racks within the rule's
// budget and returns how many state changes it made. Rack actions
// (drain, reopen) cost one token per rack; tenant actions (migrate,
// repatriate) cost one token per tenant moved.
func (c *Cluster) applyAction(act Action, racks []int, budget *int) int {
	acted := 0
	switch act {
	case ActDrain:
		for _, idx := range racks {
			if !c.drainable(idx) {
				continue
			}
			if !c.spend(budget) {
				continue
			}
			if _, _, err := c.drainRack(idx, drainPolicy); err == nil {
				acted++
			}
		}
	case ActMigrate:
		for _, idx := range racks {
			acted += c.evacuate(idx, budget)
		}
	case ActRepatriate:
		for _, idx := range racks {
			acted += c.repatriateHome(idx, budget)
		}
	case ActReopen:
		for _, idx := range racks {
			r := c.racks[idx]
			if r.draining && r.drainedBy == drainPolicy && !r.dead {
				if !c.spend(budget) {
					continue
				}
				if c.reopenRack(idx) == nil {
					acted++
				}
			}
		}
	}
	return acted
}

// drainable mirrors drainRack's preconditions so a budget token is only
// spent on a drain that can actually happen.
func (c *Cluster) drainable(idx int) bool {
	if idx < 0 || idx >= len(c.racks) || !c.cfg.Federate {
		return false
	}
	r := c.racks[idx]
	return !r.draining && !r.dead
}

// evacuate re-places every tenant resident on a rack onto the nearest
// servable rack by path cost, charging each move as remediation
// downtime and one budget token. Tenants with nowhere to go (or beyond
// the rule's rate limit) stay put — a later heartbeat retries.
func (c *Cluster) evacuate(idx int, budget *int) int {
	moved := 0
	for _, t := range c.tenants {
		if t.rack != idx {
			continue
		}
		dst := c.coldestRackFor(t, idx)
		if dst < 0 {
			continue
		}
		if !c.spend(budget) {
			continue
		}
		cost, err := c.migrate(t, dst)
		if err != nil {
			continue
		}
		moved++
		c.remedMoves++
		c.remedDowntime += cost
	}
	return moved
}

// repatriateHome brings tenants homed in a rack back while the home
// stays under the spill threshold (same guard as placement, no
// hysteresis: the rule's own conditions already gated the trigger).
// Each move costs one budget token.
func (c *Cluster) repatriateHome(idx int, budget *int) int {
	home := c.racks[idx]
	moved := 0
	for _, t := range c.tenants {
		if t.Home != idx || t.rack == idx || t.rack < 0 {
			continue
		}
		if !c.canServe(t, idx) {
			continue
		}
		if cap := home.effCapacityGbps() * home.capScale; cap == 0 ||
			(c.offeredGbps(idx)+t.gbps)/cap > pressureThreshold {
			continue
		}
		if !c.spend(budget) {
			continue
		}
		if _, err := c.migrate(t, idx); err != nil {
			continue
		}
		moved++
	}
	return moved
}

// ThrottledActions returns the cumulative count of remediation actions
// suppressed by per-rule rate limits over the run.
func (c *Cluster) ThrottledActions() int { return c.remedThrottled }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
