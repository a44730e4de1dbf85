// Package encode reads and writes semimatch instances in a simple,
// line-oriented text format, so instances can be generated once, exchanged
// and replayed (cmd/semigen writes them, cmd/semisolve and cmd/semiserve
// read them).
//
// Bipartite (SINGLEPROC) format:
//
//	bipartite <nTasks> <nProcs> <unit|weighted>
//	<task> <proc> [<weight>]        # one line per edge
//
// Hypergraph (MULTIPROC) format:
//
//	hypergraph <nTasks> <nProcs> <nEdges>
//	<task> <weight> <k> <p1> ... <pk>   # one line per hyperedge
//
// Lines whose first non-blank byte is '#' and blank lines are ignored.
// Tokens are separated by spaces, tabs, '\r', '\v' or '\f', so CRLF line
// ends are accepted. Numbers are base-10 integers with an optional sign,
// as strconv.ParseInt reads them. All indices are 0-based.
//
// Reading is one byte-level tokenizer shared by both formats: Parse reads
// a byte slice in place, and ReadBipartite / ReadHypergraph read all of an
// io.Reader into a pooled buffer and parse that. No line has a length
// limit; the
// header's sizes, each at most MaxDim, bound what a line may hold.
// Writing appends each line into one reused buffer. The written text is
// fixed: the fingerprints of canonical.go hash it, and fingerprints stored
// in caches or computed by peers must keep matching.
package encode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// MaxDim caps declared task/processor/hyperedge counts when parsing, so a
// tiny hostile header cannot demand a multi-gigabyte allocation (the
// builders allocate O(n) from the header before seeing any edges). 2^26
// vertices is far beyond the paper's grids yet bounds the up-front
// allocation to a few hundred megabytes.
const MaxDim = 1 << 26

// Kind names, as they appear at the start of a header.
const (
	kindBipartite  = "bipartite"
	kindHypergraph = "hypergraph"
)

var errEmpty = errors.New("encode: empty input")

// scratch is the reusable working storage of one read, write or
// canonicalization; scratchPool keeps it between calls so that a call
// allocates only what it returns.
type scratch struct {
	in    bytes.Buffer // input of a Read*
	procs []int32      // processors of the hyperedge line being parsed
	order []int32      // canonical hyperedge order
	text  []byte       // line buffer of a write
	hb    *hypergraph.Builder
	bb    *bipartite.Builder
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) hyperBuilder(nTasks, nProcs int) *hypergraph.Builder {
	if s.hb == nil {
		s.hb = hypergraph.NewBuilder(nTasks, nProcs)
	} else {
		s.hb.Reset(nTasks, nProcs)
	}
	return s.hb
}

func (s *scratch) bipartiteBuilder(nLeft, nRight int) *bipartite.Builder {
	if s.bb == nil {
		s.bb = bipartite.NewBuilder(nLeft, nRight)
	} else {
		s.bb.Reset(nLeft, nRight)
	}
	return s.bb
}

// Parse reads an instance in either text format from data, in place, and
// returns a *bipartite.Graph or a *hypergraph.Hypergraph as the header
// says.
func Parse(data []byte) (any, error) {
	l := lexer{buf: data}
	return l.instance("")
}

// ReadBipartite parses the bipartite text format.
func ReadBipartite(r io.Reader) (*bipartite.Graph, error) {
	inst, err := read(r, kindBipartite)
	if err != nil {
		return nil, err
	}
	return inst.(*bipartite.Graph), nil
}

// ReadHypergraph parses the hypergraph text format.
func ReadHypergraph(r io.Reader) (*hypergraph.Hypergraph, error) {
	inst, err := read(r, kindHypergraph)
	if err != nil {
		return nil, err
	}
	return inst.(*hypergraph.Hypergraph), nil
}

// read parses the format named kind from all of r.
func read(r io.Reader, kind string) (any, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.in.Reset()
	if _, err := s.in.ReadFrom(r); err != nil {
		return nil, err
	}
	l := lexer{buf: s.in.Bytes()}
	return l.instance(kind)
}

// DetectKind reads the first word of data's first content line:
// "bipartite" or "hypergraph". It scans no further than that line.
func DetectKind(data []byte) (string, error) {
	l := lexer{buf: data}
	if !l.nextLine() {
		return "", errEmpty
	}
	if kind := l.kind(); kind != "" {
		return kind, nil
	}
	return "", fmt.Errorf("encode: unknown format %q", l.wordText())
}

// token is what lexer.number found.
type token uint8

const (
	tokOK   token = iota
	tokNone       // the line has no more tokens
	tokBad        // a token that is not a base-10 integer in range
)

// lexer is the byte-level tokenizer both formats share; the unread input
// is buf[pos:].
type lexer struct {
	buf   []byte
	pos   int
	lines int    // line ends consumed
	word  []byte // the last word read
}

// lineNo is the 1-based number of the line being read.
func (l *lexer) lineNo() int { return l.lines + 1 }

// blank marks the bytes that separate tokens within a line.
var blank = [256]bool{' ': true, '\t': true, '\r': true, '\v': true, '\f': true}

// skipSpace consumes blanks within the line and returns the next byte;
// false at the end of the input.
func (l *lexer) skipSpace() (byte, bool) {
	for ; l.pos < len(l.buf); l.pos++ {
		if c := l.buf[l.pos]; !blank[c] {
			return c, true
		}
	}
	return 0, false
}

// nextLine moves to the first token of the next content line, skipping
// blank lines and comments; false at the end of the input.
func (l *lexer) nextLine() bool {
	for {
		c, ok := l.skipSpace()
		switch {
		case !ok:
			return false
		case c == '\n':
			l.pos++
			l.lines++
		case c == '#':
			l.endLine()
		default:
			return true
		}
	}
}

// endLine consumes the rest of the line, its line end included, and
// returns the number of tokens it held.
func (l *lexer) endLine() (tokens int) {
	inToken := false
	for l.pos < len(l.buf) {
		c := l.buf[l.pos]
		l.pos++
		switch {
		case c == '\n':
			l.lines++
			return tokens
		case blank[c]:
			inToken = false
		case !inToken:
			inToken = true
			tokens++
		}
	}
	return tokens
}

// number reads the next token of the line as strconv.ParseInt(tok, 10, 64)
// would: an optional sign, then at least one decimal digit.
func (l *lexer) number() (int64, token) {
	c, ok := l.skipSpace()
	if !ok || c == '\n' {
		return 0, tokNone
	}
	neg := c == '-'
	if c == '-' || c == '+' {
		l.pos++
	}
	const cutoff = (math.MaxUint64 - 9) / 10 // u*10+9 fits a uint64
	var u uint64
	digits, bad := 0, false
	buf, i := l.buf, l.pos
	for ; i < len(buf); i++ {
		c := buf[i]
		if d := c - '0'; d <= 9 && u <= cutoff {
			u = u*10 + uint64(d)
			digits++
			continue
		}
		if c == '\n' {
			break
		}
		if blank[c] {
			i++ // the blank after the token
			break
		}
		bad = true
	}
	l.pos = i
	if bad || digits == 0 || u > math.MaxInt64+1 || (!neg && u > math.MaxInt64) {
		return 0, tokBad
	}
	if neg {
		return -int64(u), tokOK
	}
	return int64(u), tokOK
}

// index is number for values that must fit an int32 (vertex indices).
func (l *lexer) index() (int32, token) {
	v, tok := l.number()
	if int64(int32(v)) != v {
		tok = tokBad
	}
	return int32(v), tok
}

// readWord reads the next token of the line into l.word; empty at the
// end of the line.
func (l *lexer) readWord() {
	l.skipSpace()
	start := l.pos
	for l.pos < len(l.buf) && l.buf[l.pos] != '\n' && !blank[l.buf[l.pos]] {
		l.pos++
	}
	l.word = l.buf[start:l.pos]
}

// wordIs reports whether the last word read is w.
func (l *lexer) wordIs(w string) bool { return string(l.word) == w }

// wordText is the last word read, cut to 16 bytes, for error messages.
func (l *lexer) wordText() string {
	if len(l.word) > 16 {
		return string(l.word[:16]) + "…"
	}
	return string(l.word)
}

// kind reads the format name that starts a header; "" if the word is
// neither.
func (l *lexer) kind() string {
	l.readWord()
	switch {
	case l.wordIs(kindBipartite):
		return kindBipartite
	case l.wordIs(kindHypergraph):
		return kindHypergraph
	}
	return ""
}

// instance parses one instance; want names the required format, or is ""
// to accept either.
func (l *lexer) instance(want string) (any, error) {
	if !l.nextLine() {
		return nil, errEmpty
	}
	kind := l.kind()
	switch {
	case want != "" && kind != want:
		return nil, fmt.Errorf("encode: bad %s header: starts with %q", want, l.wordText())
	case kind == kindBipartite:
		return l.bipartite()
	case kind == kindHypergraph:
		return l.hypergraph()
	}
	return nil, fmt.Errorf("encode: unknown format %q", l.wordText())
}

// dim reads one header size.
func (l *lexer) dim() (int, bool) {
	v, tok := l.number()
	return int(v), tok == tokOK && v >= 0 && v <= MaxDim
}

func (l *lexer) bipartite() (any, error) {
	n, okN := l.dim()
	p, okP := l.dim()
	l.readWord()
	weighted := l.wordIs("weighted")
	unit := l.wordIs("unit")
	if len(l.word) == 0 || l.endLine() != 0 {
		return nil, errors.New(`encode: bad bipartite header (want "bipartite <tasks> <procs> unit|weighted")`)
	}
	if !okN || !okP {
		return nil, fmt.Errorf("encode: bad sizes in header (limit %d)", MaxDim)
	}
	if !weighted && !unit {
		return nil, fmt.Errorf("encode: bad kind %q", l.wordText())
	}
	wantFields := 2
	if weighted {
		wantFields = 3
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b := s.bipartiteBuilder(n, p)
	for l.nextLine() {
		line := l.lineNo()
		t, tokT := l.index()
		v, tokV := l.index()
		w, tokW := int64(1), tokOK
		if weighted {
			w, tokW = l.number()
		}
		fields := l.endLine()
		toks := [...]token{tokT, tokV, tokW}
		for _, tok := range toks[:wantFields] {
			if tok != tokNone {
				fields++
			}
		}
		switch {
		case fields != wantFields:
			return nil, fmt.Errorf("encode: line %d: want %d fields, got %d", line, wantFields, fields)
		case tokT != tokOK || tokV != tokOK:
			return nil, fmt.Errorf("encode: line %d: bad edge", line)
		case tokW != tokOK:
			return nil, fmt.Errorf("encode: line %d: bad weight", line)
		}
		b.AddWeightedEdge(int(t), int(v), w)
	}
	return b.Build()
}

func (l *lexer) hypergraph() (any, error) {
	n, okN := l.dim()
	p, okP := l.dim()
	m, okM := l.dim()
	if l.endLine() != 0 {
		return nil, errors.New(`encode: bad hypergraph header (want "hypergraph <tasks> <procs> <edges>")`)
	}
	if !okN || !okP || !okM {
		return nil, fmt.Errorf("encode: bad sizes in header (limit %d)", MaxDim)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b := s.hyperBuilder(n, p)
	edges := 0
	for l.nextLine() {
		line := l.lineNo()
		t, tokT := l.index()
		w, tokW := l.number()
		k, tokK := l.number()
		if tokK == tokNone {
			return nil, fmt.Errorf("encode: line %d: truncated hyperedge", line)
		}
		if tokT != tokOK || tokW != tokOK || tokK != tokOK || k < 0 {
			return nil, fmt.Errorf("encode: line %d: bad hyperedge header", line)
		}
		if k > int64(p) {
			// More processors than exist: a duplicate or an out-of-range
			// one is certain, so the line is not read any further.
			return nil, fmt.Errorf("encode: line %d: %d processors in a hyperedge of a %d-processor instance", line, k, p)
		}
		procs, bad := s.procs[:0], false
		for int64(len(procs)) < k {
			u, tok := l.index()
			if tok == tokNone {
				break
			}
			bad = bad || tok == tokBad
			procs = append(procs, u)
		}
		s.procs = procs
		if got := len(procs) + l.endLine(); int64(got) != k {
			return nil, fmt.Errorf("encode: line %d: want %d processors, got %d", line, k, got)
		}
		if bad {
			return nil, fmt.Errorf("encode: line %d: bad processor", line)
		}
		b.AddEdge32(t, procs, w)
		edges++
	}
	if edges != m {
		return nil, fmt.Errorf("encode: header says %d hyperedges, file has %d", m, edges)
	}
	return b.Build()
}

// lineWriter writes the text formats a line at a time: each line is
// appended into one reused buffer, which goes to w once it holds flushAt
// bytes, so the text is never held whole — at most one long line more
// than flushAt of it.
type lineWriter struct {
	w   io.Writer
	s   *scratch
	buf []byte
	err error
}

const flushAt = 4 << 10

func newLineWriter(w io.Writer) *lineWriter {
	s := scratchPool.Get().(*scratch)
	if cap(s.text) < flushAt+64 {
		s.text = make([]byte, 0, flushAt+64)
	}
	return &lineWriter{w: w, s: s, buf: s.text[:0]}
}

// endLine takes back the buffer with a line appended, flushing it once it
// is full, and reports whether writing may go on.
func (lw *lineWriter) endLine(buf []byte) bool {
	lw.buf = buf
	if len(buf) >= flushAt {
		lw.flush()
	}
	return lw.err == nil
}

func (lw *lineWriter) flush() {
	if lw.err == nil && len(lw.buf) > 0 {
		_, lw.err = lw.w.Write(lw.buf)
	}
	lw.buf = lw.buf[:0]
}

// close flushes what is left, returns the scratch and reports the first
// write error.
func (lw *lineWriter) close() error {
	lw.flush()
	lw.s.text = lw.buf
	scratchPool.Put(lw.s)
	return lw.err
}

// WriteBipartite writes g in the bipartite text format.
func WriteBipartite(w io.Writer, g *bipartite.Graph) error {
	lw := newLineWriter(w)
	b := append(lw.buf, kindBipartite+" "...)
	b = strconv.AppendInt(b, int64(g.NLeft), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(g.NRight), 10)
	if g.Unit() {
		b = append(b, " unit\n"...)
	} else {
		b = append(b, " weighted\n"...)
	}
	ok := lw.endLine(b)
	for t := 0; t < g.NLeft && ok; t++ {
		ws := g.Weights(t)
		for i, p := range g.Neighbors(t) {
			b := strconv.AppendInt(lw.buf, int64(t), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(p), 10)
			if ws != nil {
				b = append(b, ' ')
				b = strconv.AppendInt(b, ws[i], 10)
			}
			ok = lw.endLine(append(b, '\n'))
		}
	}
	return lw.close()
}

// WriteHypergraph writes h in the hypergraph text format.
func WriteHypergraph(w io.Writer, h *hypergraph.Hypergraph) error {
	lw := newLineWriter(w)
	b := append(lw.buf, kindHypergraph+" "...)
	b = strconv.AppendInt(b, int64(h.NTasks), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(h.NProcs), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(h.NumEdges()), 10)
	ok := lw.endLine(append(b, '\n'))
	for t := 0; t < h.NTasks && ok; t++ {
		for _, e := range h.TaskEdges(t) {
			procs := h.EdgeProcs(e)
			b := strconv.AppendInt(lw.buf, int64(t), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, h.Weight[e], 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(len(procs)), 10)
			for _, u := range procs {
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(u), 10)
			}
			ok = lw.endLine(append(b, '\n'))
		}
	}
	return lw.close()
}
