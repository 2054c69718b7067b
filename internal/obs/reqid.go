package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// maxRequestIDLen bounds accepted client-supplied request IDs; longer
// ones are replaced, not truncated, so an ID is always either exactly
// the client's or clearly server-generated.
const maxRequestIDLen = 64

// RequestID returns a usable request ID: the client-supplied value
// when it is a reasonable header token (printable ASCII without
// spaces, quotes or commas, at most 64 bytes), or a fresh random ID.
// Accepting client IDs is what lets a caller correlate its own logs
// with the server's access log and /debug/requests.
func RequestID(supplied string) string {
	if validRequestID(supplied) {
		return supplied
	}
	return newRequestID()
}

// newRequestID generates a 16-hex-character random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID
		// keeps requests serviceable and is obvious in logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

func validRequestID(s string) bool {
	if s == "" || len(s) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' || c == ',' || c == ';' {
			return false
		}
	}
	return true
}
