package vm

// IsNull reports whether the handle holds the null reference.
func (h *Handle) IsNull() bool { return h.addr.IsNull() }

// Len returns the number of live handles.
func (r *RootSet) Len() int { return r.live }
