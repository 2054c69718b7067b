package disptrace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"unsafe"
)

// maxInflateRatio bounds how much a DEFLATE stream can expand: the
// format's stored blocks cost at least 1 bit per ~1032 output bytes,
// so a declared raw size beyond this ratio is corrupt for certain.
// Checking it before allocating keeps decode memory proportional to
// the input even for hostile indexes.
const maxInflateRatio = 1032

// maxStoredBytes bounds a trace's stored token stream, far above any
// real one, so that the step and token counts derived from it stay
// far from overflow.
const maxStoredBytes = 1 << 32

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

// inflate decompresses a flate stream whose raw size is len(out) into
// out. Truncated or garbled streams and size mismatches return
// errors, never panics.
func inflate(data, out []byte) error {
	if len(out) > maxInflateRatio*len(data)+64 {
		return fmt.Errorf("disptrace: declared raw size %d impossible for %d compressed bytes", len(out), len(data))
	}
	var zr io.ReadCloser
	if v := flateReaders.Get(); v != nil {
		zr = v.(io.ReadCloser)
		if err := zr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
			return fmt.Errorf("disptrace: inflating the token stream: %w", err)
		}
	} else {
		zr = flate.NewReader(bytes.NewReader(data))
	}
	defer func() {
		zr.Close()
		flateReaders.Put(zr)
	}()
	if _, err := io.ReadFull(zr, out); err != nil {
		return fmt.Errorf("disptrace: inflating the token stream: %w", err)
	}
	var extra [1]byte
	if n, _ := zr.Read(extra[:]); n != 0 {
		return fmt.Errorf("disptrace: inflated token stream longer than declared %d bytes", len(out))
	}
	return nil
}

// littleEndian reports whether the host stores a uint16's low byte
// first, as the token stream does on disk.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// inflateTokens decompresses a stored token stream of n tokens straight
// into the array the trace keeps, swapping each token's bytes on a
// big-endian host.
func inflateTokens(data []byte, n int) ([]uint16, error) {
	if n == 0 {
		return nil, inflate(data, nil)
	}
	toks := make([]uint16, n)
	if err := inflate(data, unsafe.Slice((*byte)(unsafe.Pointer(&toks[0])), 2*n)); err != nil {
		return nil, err
	}
	if !littleEndian {
		for i, t := range toks {
			toks[i] = t<<8 | t>>8
		}
	}
	return toks, nil
}
