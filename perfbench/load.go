package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// sample is one request of a timed phase. Offsets are from the phase
// start; first is when the first answer reached the client (the first
// answer frame of a stream, the first body byte of a one-shot
// response), zero when none did.
type sample struct {
	req          *request
	start, first time.Duration
	end          time.Duration
	status       int
	resp         respBody
	err          error
}

func (s *sample) latency() time.Duration { return s.end - s.start }

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	samples []*sample
	wall    time.Duration
	// exhausted reports that a connection sent its whole sequence
	// before the phase's time was up and started it again.
	exhausted bool
}

// runPhase drives one closed loop per connection: each sends its next
// request only once the previous response has been read to its end.
// With dur > 0, requests start until dur has passed, going round a
// sequence again if it runs out, and the phase ends when the last
// in-flight response completes; with dur == 0 each sequence is sent
// once. Bodies were encoded beforehand and responses are kept raw, so
// decoding stays off the measured path. Every response is timed, but
// only every keepEvery-th body per connection is kept for checking.
func runPhase(addr string, seqs [][]*request, dur time.Duration, trace bool, keepEvery int) phase {
	per := make([][]sample, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range seqs {
		per[c] = make([]sample, 0, len(seqs[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &conn{addr: addr, trace: trace, keepEvery: keepEvery}
			defer cl.close()
			for i := 0; i < len(seqs[c]) || dur > 0; i++ {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				per[c] = append(per[c], sample{})
				cl.send(&per[c][len(per[c])-1], seqs[c][i%len(seqs[c])], start)
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for c := range per {
		for i := range per[c] {
			p.samples = append(p.samples, &per[c][i])
		}
		p.exhausted = p.exhausted || len(per[c]) > len(seqs[c])
	}
	return p
}

// conn is one closed-loop HTTP/1.1 client on a keep-alive connection.
// It writes requests from pre-encoded bytes and parses responses in its
// own buffers, so a request costs the load generator almost no
// allocation; net/http's client would add garbage collection to the
// phase it measures.
type conn struct {
	addr      string
	trace     bool
	keepEvery int
	sent      int
	nc        net.Conn
	br        *bufio.Reader
	out       []byte
	acc       []byte
	kept      interner
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// send posts one request into s and reads its response to the end,
// noting when the first answer and the end of the answer arrived. A
// stream's answer ends with its terminal {"done":...} frame; a trace
// frame after it is read but not timed.
func (c *conn) send(s *sample, r *request, t0 time.Time) {
	s.req, s.start = r, time.Since(t0)
	err := c.roundTrip(s, r, t0)
	if s.end == 0 {
		s.end = time.Since(t0)
	}
	if err != nil {
		s.err = err
		c.close()
		return
	}
	if c.sent%c.keepEvery == 0 {
		s.resp = c.kept.keep(c.acc)
	} else {
		s.resp.at = notKept
	}
	c.sent++
}

func (c *conn) roundTrip(s *sample, r *request, t0 time.Time) error {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.nc.SetDeadline(time.Now().Add(2 * time.Minute))
	c.out = append(c.out[:0], "POST "...)
	c.out = append(c.out, r.path...)
	if c.trace {
		c.out = append(c.out, "?debug=trace"...)
	}
	c.out = append(c.out, " HTTP/1.1\r\nHost: cqfitd\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(r.size()), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	for _, p := range r.parts {
		c.out = append(c.out, p...)
	}
	if _, err := c.nc.Write(c.out); err != nil {
		return fmt.Errorf("write request: %w", err)
	}
	status, length, chunked, keepAlive, err := readHead(c.br)
	if err != nil {
		return err
	}
	s.status = status
	stream := r.path == pathStream && status == 200
	var fr frameReader
	c.acc = c.acc[:0]
	got := func(p []byte) {
		now := time.Since(t0)
		c.acc = append(c.acc, p...)
		if !stream {
			if s.first == 0 {
				s.first = now
			}
			return
		}
		answer, done := fr.feed(c.acc)
		if answer && s.first == 0 {
			s.first = now
		}
		if done && s.end == 0 {
			s.end = now
		}
	}
	if chunked {
		err = readChunked(c.br, got)
	} else {
		err = readN(c.br, length, got)
	}
	if err != nil {
		return err
	}
	if !keepAlive {
		c.close()
	}
	return nil
}

// readHead parses a response's status line and the headers that frame
// its body.
func readHead(br *bufio.Reader) (status int, length int64, chunked, keepAlive bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, false, fmt.Errorf("read status: %w", err)
	}
	f := bytes.Fields(line)
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) {
		return 0, 0, false, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(f[1])); err != nil {
		return 0, 0, false, false, fmt.Errorf("bad status line %q", line)
	}
	length, keepAlive = -1, true
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, 0, false, false, fmt.Errorf("read headers: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.ParseInt(string(v), 10, 64); err != nil {
				return 0, 0, false, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keepAlive = !bytes.EqualFold(v, []byte("close"))
		}
	}
	if !chunked && length < 0 {
		return 0, 0, false, false, errors.New("response has neither Content-Length nor chunked encoding")
	}
	return status, length, chunked, keepAlive, nil
}

// readN passes the next n body bytes to got as they arrive.
func readN(br *bufio.Reader, n int64, got func([]byte)) error {
	for n > 0 {
		p, err := br.Peek(min(int(n), br.Size()))
		if len(p) == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("read body: %w", err)
		}
		got(p)
		br.Discard(len(p))
		n -= int64(len(p))
	}
	return nil
}

// readChunked passes a chunked body's data to got chunk by chunk.
func readChunked(br *bufio.Reader, got func([]byte)) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read chunk size: %w", err)
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// Trailers end with an empty line.
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return fmt.Errorf("read trailer: %w", err)
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := readN(br, n, got); err != nil {
			return err
		}
		if _, err := br.Discard(2); err != nil {
			return fmt.Errorf("read chunk end: %w", err)
		}
	}
}

// frameReader tracks the NDJSON frames of a growing stream body.
type frameReader struct {
	off  int // start of the first unscanned line
	done bool
}

// feed scans the complete lines added to body since the last call and
// reports whether one of them was an answer frame and whether the
// terminal frame has arrived.
func (f *frameReader) feed(body []byte) (answer, done bool) {
	for {
		i := bytes.IndexByte(body[f.off:], '\n')
		if i < 0 {
			return answer, f.done
		}
		line := body[f.off : f.off+i]
		f.off += i + 1
		switch {
		case bytes.HasPrefix(line, []byte(`{"index"`)):
			answer = true
		case bytes.HasPrefix(line, []byte(`{"done"`)):
			f.done = true
		}
	}
}

// respBody is a response body kept for checking after the phase: the
// body with its first elapsed_ms value cut out (shape), and that value.
type respBody struct {
	shape   string
	at      int // where elapsed goes back in; -1 when nothing was cut
	n       uint8
	elapsed [23]byte
}

// notKept marks a respBody whose response was timed but not kept.
const notKept = -2

func (r *respBody) bytes() []byte {
	if r.at < 0 {
		return []byte(r.shape)
	}
	return []byte(r.shape[:r.at] + string(r.elapsed[:r.n]) + r.shape[r.at:])
}

// interner keeps one copy of the response bodies that differ only in
// their elapsed_ms value. Most of serve-2c's answers repeat that way,
// so a run of several hundred thousand requests stays small; the
// lookup costs well under a microsecond per response.
type interner struct {
	m       map[string]string
	scratch []byte
}

var elapsedField = []byte(`"elapsed_ms": `)

func (in *interner) keep(body []byte) respBody {
	i := bytes.Index(body, elapsedField)
	if i < 0 {
		return respBody{shape: string(body), at: -1}
	}
	i += len(elapsedField)
	j := i
	for j < len(body) && j-i < 23 && bytes.IndexByte([]byte("0123456789.-+e"), body[j]) >= 0 {
		j++
	}
	in.scratch = append(append(in.scratch[:0], body[:i]...), body[j:]...)
	shape, ok := in.m[string(in.scratch)]
	if !ok {
		if in.m == nil {
			in.m = map[string]string{}
		}
		shape = string(in.scratch)
		in.m[shape] = shape
	}
	r := respBody{shape: shape, at: i, n: uint8(j - i)}
	copy(r.elapsed[:], body[i:j])
	return r
}
