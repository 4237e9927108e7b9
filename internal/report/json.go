package report

import (
	"encoding/json"
	"fmt"
)

// The JSON form is a tagged-union mirror of the in-memory model. It is
// deliberately lossless with respect to the text renderer: every text
// line and every cell's rendered text travels with its typed value, so
// parsing the JSON and re-rendering reproduces the text output byte
// for byte (pinned by the round-trip test in internal/experiments).

type jsonReport struct {
	Scenario string       `json:"scenario"`
	Title    string       `json:"title"`
	Meta     jsonMeta     `json:"meta"`
	Blocks   []jsonBlock  `json:"blocks"`
	Scalars  []jsonScalar `json:"scalars,omitempty"`
	Series   []jsonSeries `json:"series,omitempty"`
}

type jsonMeta struct {
	Seed   int64       `json:"seed"`
	Params []jsonParam `json:"params"`
}

type jsonParam struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

type jsonBlock struct {
	Kind  string       `json:"kind"` // "text" | "table"
	Lines []string     `json:"lines,omitempty"`
	Name  string       `json:"name,omitempty"`
	Cols  []jsonCol    `json:"cols,omitempty"`
	Rows  [][]jsonCell `json:"rows,omitempty"`
}

type jsonCol struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "string" | "number"
}

type jsonCell struct {
	Text string   `json:"text"`
	Num  *float64 `json:"num,omitempty"`
}

type jsonScalar struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

type jsonSeries struct {
	Name   string       `json:"name"`
	XLabel string       `json:"x_label,omitempty"`
	YLabel string       `json:"y_label,omitempty"`
	Points [][2]float64 `json:"points"`
}

func kindName(k CellKind) string {
	if k == CellNumber {
		return "number"
	}
	return "string"
}

func kindFromName(s string) (CellKind, error) {
	switch s {
	case "number":
		return CellNumber, nil
	case "string":
		return CellString, nil
	default:
		return 0, fmt.Errorf("report: unknown cell kind %q", s)
	}
}

// MarshalJSON encodes the report in its stable wire form.
func (r *Report) MarshalJSON() ([]byte, error) {
	jr := jsonReport{
		Scenario: r.Scenario,
		Title:    r.Title,
		Meta:     jsonMeta{Seed: r.Meta.Seed, Params: make([]jsonParam, 0, len(r.Meta.Params))},
	}
	for _, p := range r.Meta.Params {
		jr.Meta.Params = append(jr.Meta.Params, jsonParam(p))
	}
	for _, blk := range r.Blocks {
		switch t := blk.(type) {
		case *TextBlock:
			// Preserve emptiness distinctly: a text block always has a
			// lines array, even when a single blank line.
			lines := t.Lines
			if lines == nil {
				lines = []string{}
			}
			jr.Blocks = append(jr.Blocks, jsonBlock{Kind: "text", Lines: lines})
		case *Table:
			jb := jsonBlock{Kind: "table", Name: t.Name}
			for _, c := range t.Cols {
				jb.Cols = append(jb.Cols, jsonCol{Name: c.Name, Kind: kindName(c.Kind)})
			}
			jb.Rows = make([][]jsonCell, 0, len(t.Rows))
			for _, row := range t.Rows {
				jrow := make([]jsonCell, 0, len(row))
				for _, c := range row {
					jc := jsonCell{Text: c.Text}
					if c.Kind == CellNumber {
						v := c.Num
						jc.Num = &v
					}
					jrow = append(jrow, jc)
				}
				jb.Rows = append(jb.Rows, jrow)
			}
			jr.Blocks = append(jr.Blocks, jb)
		default:
			return nil, fmt.Errorf("report: unknown block type %T", blk)
		}
	}
	for _, s := range r.Scalars {
		jr.Scalars = append(jr.Scalars, jsonScalar(s))
	}
	for _, s := range r.Series {
		jr.Series = append(jr.Series, jsonSeries(s))
	}
	return json.Marshal(jr)
}

// UnmarshalJSON decodes the wire form back into the model.
//
//lint:allow testonly TestJSONRoundTripMatchesText and TestJSONRoundTripIsTextIdentical pin that the JSON form carries everything the text form does
func (r *Report) UnmarshalJSON(data []byte) error {
	var jr jsonReport
	if err := json.Unmarshal(data, &jr); err != nil {
		return err
	}
	*r = Report{
		Scenario: jr.Scenario,
		Title:    jr.Title,
		Meta:     Meta{Seed: jr.Meta.Seed},
	}
	for _, p := range jr.Meta.Params {
		r.Meta.Params = append(r.Meta.Params, Param(p))
	}
	for _, jb := range jr.Blocks {
		switch jb.Kind {
		case "text":
			r.Blocks = append(r.Blocks, &TextBlock{Lines: jb.Lines})
		case "table":
			t := &Table{Name: jb.Name}
			for _, c := range jb.Cols {
				k, err := kindFromName(c.Kind)
				if err != nil {
					return err
				}
				t.Cols = append(t.Cols, Column{Name: c.Name, Kind: k})
			}
			for _, jrow := range jb.Rows {
				row := make([]Cell, 0, len(jrow))
				for _, jc := range jrow {
					c := Cell{Text: jc.Text}
					if jc.Num != nil {
						c.Kind = CellNumber
						c.Num = *jc.Num
					}
					row = append(row, c)
				}
				t.Rows = append(t.Rows, row)
			}
			r.Blocks = append(r.Blocks, t)
		default:
			return fmt.Errorf("report: unknown block kind %q", jb.Kind)
		}
	}
	for _, s := range jr.Scalars {
		r.Scalars = append(r.Scalars, Scalar(s))
	}
	for _, s := range jr.Series {
		r.Series = append(r.Series, Series(s))
	}
	return nil
}

// CSVHeader is the column line of the tidy CSV form.
const CSVHeader = "scenario,section,row,column,text,value"

// CSV renders the report's tables and scalars in tidy (long) form, one
// record per cell / scalar:
//
//	scenario,section,row,column,text,value
//
// Numeric cells and scalars carry their raw value in the last field;
// string cells leave it empty. The layout is deliberately uniform
// across scenarios so multi-report outputs concatenate into one frame
// (CSVHeader once, then each report's CSVRecords).
func (r *Report) CSV() string {
	return CSVHeader + "\n" + r.CSVRecords()
}

// CSVRecords renders the data rows of the tidy CSV form, without the
// header line.
func (r *Report) CSVRecords() string {
	var b []byte
	for _, blk := range r.Blocks {
		t, ok := blk.(*Table)
		if !ok {
			continue
		}
		for ri, row := range t.Rows {
			for ci, c := range row {
				col := ""
				if ci < len(t.Cols) {
					col = t.Cols[ci].Name
				}
				b = appendCSV(b, r.Scenario, t.Name, fmt.Sprint(ri), col, c.Text,
					numField(c.Kind == CellNumber, c.Num))
			}
		}
	}
	for _, s := range r.Scalars {
		b = appendCSV(b, r.Scenario, "scalars", "", s.Name, s.Unit, numField(true, s.Value))
	}
	return string(b)
}

func numField(ok bool, v float64) string {
	if !ok {
		return ""
	}
	return fmt.Sprintf("%g", v)
}

// appendCSV writes one RFC-4180 record.
func appendCSV(b []byte, fields ...string) []byte {
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, f)
	}
	return append(b, '\n')
}

func appendCSVField(b []byte, f string) []byte {
	needQuote := false
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\n', '\r':
			needQuote = true
		}
	}
	if !needQuote {
		return append(b, f...)
	}
	b = append(b, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			b = append(b, '"', '"')
		} else {
			b = append(b, f[i])
		}
	}
	return append(b, '"')
}
