package lang

// SlabFill parses the loop starting at the first token of src's loop number
// k (0-based, as ParseFile counts them) and reports, for each AST node kind
// and for the statement list, how many entries parsing made and how many
// presize allotted.
func SlabFill(src string, k int) (made, allotted []int, err error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	for i := 0; ; i++ {
		p.skipNewlines()
		loop, err := p.parseLoop()
		if err != nil {
			return nil, nil, err
		}
		if i < k {
			continue
		}
		made = []int{len(p.binarys.cur), len(p.refs.cur), len(p.scalars.cur), len(p.consts.cur), len(p.negs.cur), len(p.assigns.cur), len(loop.Body)}
		allotted = []int{cap(p.binarys.cur), cap(p.refs.cur), cap(p.scalars.cur), cap(p.consts.cur), cap(p.negs.cur), cap(p.assigns.cur), cap(loop.Body)}
		return made, allotted, nil
	}
}
