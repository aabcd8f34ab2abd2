package main

import (
	"fmt"
	"io"
	"math"

	"suit/internal/report"
)

// A cell is one number of the paper's evaluation beside what this
// reproduction measures for it. Experiments return their cells with what
// they print; a run ends with one paper-vs-measured table of them, and
// TestPaperFidelity fails on every cell that breaks the contract of
// fault.
type cell struct {
	id    string // unique within its experiment; the runner prefixes the experiment id
	unit  string
	paper float64
	got   float64
	// sigma is the spread the paper reports for this number. Where it
	// reports one, the band is ±sigma; elsewhere it is the default band.
	sigma float64
	// than marks an ablation: the paper claims an ordering, not a
	// number, so paper holds the value measured with the mechanism
	// removed and the cell holds when got lies below ('<') or above
	// ('>') it.
	than byte
	dev  *deviation
}

// deviation records why a cell may lie outside its band and the shape
// the reason still claims (a sign, an ordering or a direction),
// evaluated on the measured values.
type deviation struct {
	reason *reason
	shape  string
	holds  bool
}

// A reason explains one or more deviations.
type reason struct{ key, text string }

// The default band: ±25 % of the paper's number, and never narrower than
// half a unit of the cell (a difference the paper's coarsest rounding
// would hide). Only the paper's own spread overrides it.
const (
	defaultRel   = 0.25
	defaultFloor = 0.5
)

func (c cell) band() float64 {
	if c.sigma > 0 {
		return c.sigma
	}
	return max(defaultRel*math.Abs(c.paper), defaultFloor)
}

// within reports whether the measurement reproduces the paper's number
// (or, for an ablation, its ordering).
func (c cell) within() bool {
	switch c.than {
	case '<':
		return c.got < c.paper
	case '>':
		return c.got > c.paper
	}
	return math.Abs(c.got-c.paper) <= c.band()
}

// fault returns why the cell breaks the contract, or "" if it keeps it:
// a cell outside its band carries a deviation, and a deviation's shape
// holds. A cell may carry a deviation and still land inside its band
// where its reason moves it across the edge between stream lengths.
func (c cell) fault() string {
	switch {
	case c.dev == nil && !c.within():
		return fmt.Sprintf("measured %s against the paper's %s: outside its band, and no deviation explains it", num(c.got), c.paperText())
	case c.dev != nil && !c.dev.holds:
		return fmt.Sprintf("deviation %s claims %q, which measured %s does not show", c.dev.reason.key, c.dev.shape, num(c.got))
	}
	return ""
}

func (c cell) paperText() string {
	if c.than != 0 {
		return fmt.Sprintf("%c %s", c.than, num(c.paper))
	}
	return num(c.paper)
}

// pct builds a percent cell from a measured fraction.
func pct(id string, paper, frac float64) cell {
	return cell{id: id, unit: "%", paper: paper, got: frac * 100}
}

// deviates attaches a deviation to the cell.
func (c cell) deviates(r *reason, shape string, holds bool) cell {
	c.dev = &deviation{reason: r, shape: shape, holds: holds}
	return c
}

// below and above attach a deviation whose reason claims the direction
// in which the measurement leaves the paper's number.
func (c cell) below(r *reason) cell { return c.deviates(r, "below the paper", c.got < c.paper) }
func (c cell) above(r *reason) cell { return c.deviates(r, "above the paper", c.got > c.paper) }

// num prints a value with the precision its magnitude needs.
func num(v float64) string {
	switch a := math.Abs(v); {
	case a >= 100 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// renderCells prints the paper-vs-measured table and, below it, the
// reason behind every deviation.
func renderCells(w io.Writer, cells []cell) error {
	if len(cells) == 0 {
		return nil
	}
	t := report.NewTable(fmt.Sprintf("Paper vs measured (band: the paper's σ where it reports one, else ±%.0f %% of the paper's number, at least ±%.1f unit)",
		defaultRel*100, defaultFloor),
		"cell", "unit", "paper", "measured", "band", "status")
	var reasons []*reason
	listed := map[*reason]bool{}
	for _, c := range cells {
		band := "±" + num(c.band())
		if c.than != 0 {
			band = "ablated"
		}
		status := "ok"
		switch {
		case c.fault() != "":
			status = "FAIL"
		case !c.within():
			status = fmt.Sprintf("%s: %s", c.dev.reason.key, c.dev.shape)
			if !listed[c.dev.reason] {
				listed[c.dev.reason] = true
				reasons = append(reasons, c.dev.reason)
			}
		}
		t.AddRow(c.id, c.unit, c.paperText(), num(c.got), band, status)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if len(reasons) > 0 {
		fmt.Fprintln(w, "\nDeviations (the status column names the shape each one still asserts):")
	}
	for _, r := range reasons {
		fmt.Fprintf(w, "  %s: %s\n", r.key, r.text)
	}
	return nil
}
