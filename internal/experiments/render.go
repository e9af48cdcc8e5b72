package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// tableRow is what a result row type tells Render: the title and column
// header of its table (asked of the first row — Fig. 5's columns and
// two of the titles depend on the data) and the display lines this row
// contributes.
type tableRow interface {
	title() string
	header() []string
	cells() [][]string
}

// Render formats an experiment's rows as an aligned text table under
// its title and a header rule; no rows render as nothing.
func Render[R tableRow](rows []R) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(rows[0].title() + "\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	header := rows[0].header()
	fmt.Fprintln(w, strings.Join(header, "\t"))
	rule := make([]string, len(header))
	for i, h := range header {
		rule[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(rule, "\t"))
	for _, r := range rows {
		for _, line := range r.cells() {
			fmt.Fprintln(w, strings.Join(line, "\t"))
		}
	}
	w.Flush()
	return b.String()
}

// csvRow is what a result row type tells WriteCSV: the header record of
// its long-format file and the records this row contributes.
type csvRow interface {
	csvHeader() []string
	csvRecords() [][]string
}

// SaveCSV writes an experiment's rows to dir/name (creating dir) and
// says so on stdout; an empty dir means CSV output was not asked for.
func SaveCSV[R csvRow](dir, name string, rows []R) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, rows); err != nil {
		return err
	}
	fmt.Println("wrote", f.Name())
	return f.Close()
}

// WriteCSV writes an experiment's rows as CSV for external plotting: a
// header record, then one record per data point.
func WriteCSV[R csvRow](w io.Writer, rows []R) error {
	cw := csv.NewWriter(w)
	var zero R
	if err := cw.Write(zero.csvHeader()); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.WriteAll(r.csvRecords()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Cell formats: text tables show milliseconds to three decimals, CSV
// files carry four.
func ms(d time.Duration) string    { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
func durMs(d time.Duration) string { return fmt.Sprintf("%.4f", float64(d.Microseconds())/1000) }
func csvFloat(v float64) string    { return strconv.FormatFloat(v, 'f', 4, 64) }

// precisionHeader is the column header shared by both Fig. 5 tables.
func precisionHeader(ns []int) []string {
	header := []string{"method"}
	for _, n := range ns {
		header = append(header, fmt.Sprintf("P@%d", n))
	}
	return header
}

func (Table1Row) title() string { return "Table I — extracted close terms" }
func (Table1Row) header() []string {
	return []string{"target term", "ranked close terms", "ranked close conferences"}
}
func (r Table1Row) cells() [][]string {
	return [][]string{{r.Target, FormatList(r.CloseTerms, 6), FormatList(r.CloseConfs, 3)}}
}

func (Table2Row) title() string {
	return "Table II — similar topic extraction (co-occurrence vs contextual random walk)"
}
func (Table2Row) header() []string { return []string{"target", "method", "similar terms"} }
func (r Table2Row) cells() [][]string {
	synNote := ""
	if r.SynonymPartner != "" {
		rankOf := func(rank int) string {
			if rank < 0 {
				return "absent"
			}
			return fmt.Sprintf("rank %d", rank+1)
		}
		synNote = fmt.Sprintf(" [planted partner %q: cooccur %s, contextual %s]",
			r.SynonymPartner, rankOf(r.CooccurPartnerRank), rankOf(r.ContextualPartnerRank))
	}
	return [][]string{
		{r.Target, "co-occurrence", FormatList(r.Cooccur, 8)},
		{"", "contextual walk", FormatList(r.Contextual, 8) + synNote},
	}
}

func (Fig5Row) title() string      { return "Fig. 5 — query generation precision of different methods" }
func (r Fig5Row) header() []string { return precisionHeader(r.Ns) }
func (r Fig5Row) cells() [][]string {
	row := []string{string(r.Method)}
	for _, p := range r.Precision {
		row = append(row, fmt.Sprintf("%.3f", p))
	}
	return [][]string{row}
}
func (Fig5Row) csvHeader() []string { return []string{"method", "n", "precision"} }
func (r Fig5Row) csvRecords() [][]string {
	recs := make([][]string, len(r.Ns))
	for i, n := range r.Ns {
		recs[i] = []string{string(r.Method), strconv.Itoa(n), csvFloat(r.Precision[i])}
	}
	return recs
}

func (r Fig5MultiRow) title() string {
	return fmt.Sprintf("Fig. 5 — precision over %d query seeds (mean ± std)", r.Seeds)
}
func (r Fig5MultiRow) header() []string { return precisionHeader(r.Ns) }
func (r Fig5MultiRow) cells() [][]string {
	row := []string{string(r.Method)}
	for j := range r.Mean {
		row = append(row, fmt.Sprintf("%.3f±%.3f", r.Mean[j], r.Std[j]))
	}
	return [][]string{row}
}

func (Fig7Row) title() string {
	return "Fig. 7 — time cost of query generation algorithms (per query)"
}
func (Fig7Row) header() []string {
	return []string{"query length", "Alg2 top-k Viterbi (ms)", "Alg3 Viterbi+A* (ms)", "speedup"}
}
func (r Fig7Row) cells() [][]string {
	return [][]string{{strconv.Itoa(r.Length), ms(r.Alg2), ms(r.Alg3), fmt.Sprintf("%.1fx", r.Speedup)}}
}
func (Fig7Row) csvHeader() []string { return []string{"length", "algorithm", "ms"} }
func (r Fig7Row) csvRecords() [][]string {
	return [][]string{
		{strconv.Itoa(r.Length), "alg2_topk_viterbi", durMs(r.Alg2)},
		{strconv.Itoa(r.Length), "alg3_viterbi_astar", durMs(r.Alg3)},
	}
}

// stageCells and stageRecords are the two-stage (Viterbi, A*) split
// shared by Fig. 8 (per query length) and Fig. 9 (per k).
func stageCells(x int, viterbi, astar time.Duration) [][]string {
	return [][]string{{strconv.Itoa(x), ms(viterbi), ms(astar)}}
}
func stageRecords(x int, viterbi, astar time.Duration) [][]string {
	return [][]string{
		{strconv.Itoa(x), "viterbi", durMs(viterbi)},
		{strconv.Itoa(x), "astar", durMs(astar)},
	}
}

func (Fig8Row) title() string {
	return "Fig. 8 — time cost of the two stages of Algorithm 3 (per query)"
}
func (Fig8Row) header() []string {
	return []string{"query length", "Viterbi stage (ms)", "A* stage (ms)"}
}
func (r Fig8Row) cells() [][]string      { return stageCells(r.Length, r.Viterbi, r.AStar) }
func (Fig8Row) csvHeader() []string      { return []string{"length", "stage", "ms"} }
func (r Fig8Row) csvRecords() [][]string { return stageRecords(r.Length, r.Viterbi, r.AStar) }

func (Fig9Row) title() string {
	return "Fig. 9 — time cost vs number of returned queries k (per query)"
}
func (Fig9Row) header() []string         { return []string{"k", "Viterbi stage (ms)", "A* stage (ms)"} }
func (r Fig9Row) cells() [][]string      { return stageCells(r.K, r.Viterbi, r.AStar) }
func (Fig9Row) csvHeader() []string      { return []string{"k", "stage", "ms"} }
func (r Fig9Row) csvRecords() [][]string { return stageRecords(r.K, r.Viterbi, r.AStar) }

func (Fig10Row) title() string {
	return "Fig. 10 — time cost vs size of candidate states (per query, online stage)"
}
func (Fig10Row) header() []string         { return []string{"candidates per term", "response time (ms)"} }
func (r Fig10Row) cells() [][]string      { return [][]string{{strconv.Itoa(r.N), ms(r.Total)}} }
func (Fig10Row) csvHeader() []string      { return []string{"candidates", "ms"} }
func (r Fig10Row) csvRecords() [][]string { return [][]string{{strconv.Itoa(r.N), durMs(r.Total)}} }

func (Table3Row) title() string {
	return "Table III — result size and query distance of reformulated queries"
}
func (Table3Row) header() []string { return []string{"method", "result size", "query distance"} }
func (r Table3Row) cells() [][]string {
	return [][]string{{string(r.Method), fmt.Sprintf("%.2f", r.ResultSize), fmt.Sprintf("%.2f", r.QueryDistance)}}
}
func (Table3Row) csvHeader() []string { return []string{"method", "result_size", "query_distance"} }
func (r Table3Row) csvRecords() [][]string {
	return [][]string{{string(r.Method), csvFloat(r.ResultSize), csvFloat(r.QueryDistance)}}
}

func (r SynonymRecallRow) title() string {
	return fmt.Sprintf("Synonym recall — planted never-co-occurring pairs found in top %d", r.MaxK)
}
func (SynonymRecallRow) header() []string { return []string{"method", "pairs found", "mean rank"} }
func (r SynonymRecallRow) cells() [][]string {
	mean := "-"
	if r.Found > 0 {
		mean = fmt.Sprintf("%.1f", r.MeanRank)
	}
	return [][]string{{r.Method, fmt.Sprintf("%d/%d", r.Found, r.Pairs), mean}}
}
