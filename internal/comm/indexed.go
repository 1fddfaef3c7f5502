package comm

// ExchangeIndexed performs a sparse point-to-point exchange within the
// group — the halo-exchange collective of §IV-A-1. Member i sends parts[j]
// to every member j for which parts[j] is non-empty, and receives one
// payload from exactly the members marked true in from. The received
// payloads are returned indexed by group member (zero value where from[j]
// is false). parts[me] must be empty and from[me] false: ranks never
// exchange with themselves.
//
// Unlike AllToAll, nothing is transmitted for an empty part — the point of
// a sparsity-aware exchange is that most pairs move nothing. Every member
// is charged α·(messages it receives) + β·(words it receives): with
// row-payloads of f words per row that is α·msgs + β·rows·f, the inbound
// critical path, matching the §IV-A-1 convention that edgecut_P(A) counts
// the rows a process must fetch. (Outbound traffic still shows in the
// sender's plan, as its step's physical sent words: Reading.Sent.)
//
// The pattern must agree across the group: from[i] is true at member j
// exactly when member i passes a non-empty parts[j]. Callers typically
// negotiate it once with an AllToAll of index lists and reuse it every
// epoch. It is IExchangeIndexed joined immediately.
func (g *Group) ExchangeIndexed(parts []Payload, from []bool, cat Category) []Payload {
	return g.IExchangeIndexed(parts, from, cat).WaitAll()
}
