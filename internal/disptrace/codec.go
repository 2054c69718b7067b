package disptrace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// maxInflateRatio bounds how much a DEFLATE stream can expand: the
// format's stored blocks cost at least 1 bit per ~1032 output bytes,
// so a declared raw size beyond this ratio is corrupt for certain.
// Checking it before allocating keeps decode memory proportional to
// the input even for hostile indexes.
const maxInflateRatio = 1032

// flateWriters pools flate compressors: a fresh flate.Writer carries
// tens of kilobytes of match tables. Reset fully reinitializes a
// pooled writer — including one abandoned mid-stream by an error — so
// reuse is safe.
var flateWriters = sync.Pool{
	New: func() any {
		zw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
		return zw
	},
}

// flateReaders pools flate decompressors; every reader flate.NewReader
// produces implements flate.Resetter, and Reset restores it to a
// fresh stream whatever state the previous use left it in.
var flateReaders sync.Pool

// deflate compresses raw at the default flate level. The output is a
// deterministic function of raw, which is what lets a decoded trace
// re-encode to its original bytes.
func deflate(raw []byte) []byte {
	var buf bytes.Buffer
	zw := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(zw)
	zw.Reset(&buf)
	// Writes into a bytes.Buffer cannot fail.
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

// inflate decompresses a flate stream whose raw size is declared as
// rawLen. Truncated or garbled streams and size mismatches return
// errors, never panics.
func inflate(data []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > maxInflateRatio*len(data)+64 {
		return nil, fmt.Errorf("disptrace: declared raw size %d impossible for %d compressed bytes", rawLen, len(data))
	}
	var zr io.ReadCloser
	if v := flateReaders.Get(); v != nil {
		zr = v.(io.ReadCloser)
		if err := zr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
			return nil, fmt.Errorf("disptrace: inflating the ID stream: %w", err)
		}
	} else {
		zr = flate.NewReader(bytes.NewReader(data))
	}
	defer func() {
		zr.Close()
		flateReaders.Put(zr)
	}()
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("disptrace: inflating the ID stream: %w", err)
	}
	var extra [1]byte
	if n, _ := zr.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("disptrace: inflated ID stream longer than declared %d bytes", rawLen)
	}
	return out, nil
}
