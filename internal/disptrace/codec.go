package disptrace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec identifies the byte-level encoding of one segment payload.
// The segment index carries a codec byte per segment, so a trace may
// mix codecs (the writer falls back to CodecRaw whenever compression
// does not shrink a payload) and new codecs can be added without a
// format bump — readers reject codec bytes they do not know.
type Codec uint8

const (
	// CodecRaw stores the varint record stream as-is. It is the
	// fallback when compression loses.
	CodecRaw Codec = 0
	// CodecFlate stores the record stream DEFLATE-compressed
	// (compress/flate). Step-record streams are dominated by repeated
	// tag/delta patterns from interpreter loops, so flate typically
	// shrinks them 3-6x while inflating stays far cheaper than
	// re-running the interpreter.
	CodecFlate Codec = 1
)

// DefaultCodec is the codec Encode and Save apply to raw segments.
var DefaultCodec = CodecFlate

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// CodecByName resolves a CLI codec name.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "raw":
		return CodecRaw, nil
	case "flate":
		return CodecFlate, nil
	default:
		return 0, fmt.Errorf("disptrace: unknown codec %q (want raw or flate)", name)
	}
}

// knownCodec reports whether a codec byte read from a trace index is
// one this reader can decode.
func knownCodec(c Codec) bool { return c == CodecRaw || c == CodecFlate }

// maxInflateRatio bounds how much a DEFLATE stream can expand: the
// format's stored blocks cost at least 1 bit per ~1032 output bytes,
// so a declared raw size beyond this ratio is corrupt for certain.
// Checking it before allocating keeps decode memory proportional to
// the input even for hostile indexes.
const maxInflateRatio = 1032

// flateWriters pools flate compressors: a fresh flate.Writer carries
// tens of kilobytes of match tables, and before pooling every encoded
// segment paid that allocation (EncodeFlate was ~370 allocs per
// trace). Reset fully reinitializes a pooled writer — including one
// abandoned mid-stream by an error — so reuse is safe.
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

// deflate compresses raw with the default flate level and reports
// whether the result is strictly smaller (callers keep CodecRaw
// otherwise).
func deflate(raw []byte) ([]byte, bool) {
	var buf bytes.Buffer
	zw := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(zw)
	zw.Reset(&buf)
	if _, err := zw.Write(raw); err != nil {
		return nil, false
	}
	if err := zw.Close(); err != nil {
		return nil, false
	}
	if buf.Len() >= len(raw) {
		return nil, false
	}
	return buf.Bytes(), true
}

// inflate decompresses a flate payload whose raw size is declared as
// rawLen, reusing scratch when it has the capacity. Truncated or
// garbled streams and size mismatches return errors, never panics.
func inflate(data []byte, rawLen int, scratch []byte) ([]byte, error) {
	if rawLen < 0 || rawLen > maxInflateRatio*len(data)+64 {
		return nil, fmt.Errorf("disptrace: declared raw size %d impossible for %d compressed bytes", rawLen, len(data))
	}
	var zr io.ReadCloser
	if v := flateReaders.Get(); v != nil {
		zr = v.(io.ReadCloser)
		if err := zr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
			return nil, fmt.Errorf("disptrace: inflating segment: %w", err)
		}
	} else {
		zr = flate.NewReader(bytes.NewReader(data))
	}
	defer func() {
		zr.Close()
		flateReaders.Put(zr)
	}()
	out := scratch
	if cap(out) < rawLen {
		out = make([]byte, rawLen)
	}
	out = out[:rawLen]
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("disptrace: inflating segment: %w", err)
	}
	var extra [1]byte
	if n, _ := zr.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("disptrace: inflated segment longer than declared %d bytes", rawLen)
	}
	return out, nil
}

// encodePayload converts a raw payload to the requested codec,
// returning the stored bytes and the codec actually used (CodecRaw
// when compression would not shrink the payload or the codec is
// unknown).
func encodePayload(raw []byte, c Codec) ([]byte, Codec) {
	if c == CodecFlate {
		if z, ok := deflate(raw); ok {
			return z, CodecFlate
		}
	}
	return raw, CodecRaw
}
