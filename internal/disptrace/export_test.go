package disptrace

// SetWriterSegLimit overrides the writer's records-per-segment limit
// so tests can produce many-segment traces without writing millions
// of records.
func SetWriterSegLimit(w *Writer, n int) { w.segLimit = n }
