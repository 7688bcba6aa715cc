package mllib

import "github.com/carv-repro/teraheap-go/internal/vm"

// Accuracy evaluates classification accuracy of weights w on the cached
// points: the tests' judge of model quality.
func (d *Dataset) Accuracy(w []float64) (float64, error) {
	var correct, total int64
	err := d.forEachPoint(func(label float64, pt vm.Addr) {
		total++
		if d.dot(w, pt)*label > 0 {
			correct++
		}
	})
	if err != nil || total == 0 {
		return 0, err
	}
	return float64(correct) / float64(total), nil
}
