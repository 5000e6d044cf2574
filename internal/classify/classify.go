// Package classify implements next-template prediction as classification
// over the workload's template classes (paper Sections 4.1.2 and 4.2.1).
//
// The classifier is the trained seq2seq encoder with a standard two-layer
// head on top of the mean-pooled encoder output. Constructing it from a
// trained model (fine-tuning) transfers the next-query representation
// learned in step 1; constructing it from a fresh model isolates the
// fine-tuning effect (the paper's "without the pre-trained encoder"
// baseline).
package classify

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/seq2seq"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Classifier predicts the template class of the next query from the
// current query's token ids.
type Classifier struct {
	Enc     seq2seq.Model
	L1, L2  *nn.Linear
	Classes []string // class id -> template statement

	// FreezeEncoder stops gradients into the encoder during fine-tuning
	// (ablation: feature extraction vs full fine-tuning).
	FreezeEncoder bool

	classIndex map[string]int
}

// New builds a classifier head over the given encoder. hidden is the MLP
// hidden width (paper tunes in [300, 2000]; CPU scale defaults lower).
// The head reads the concatenation of the mean-pooled encoder output and
// the final-position state: the mean summarizes the bag of tokens, the
// final state (which attended over the whole query) keeps structural
// information that mean pooling washes out.
func New(enc seq2seq.Model, hidden int, classes []string, seed int64) *Classifier {
	rng := rand.New(rand.NewSource(seed))
	d := enc.Config().DModel
	c := &Classifier{
		Enc:     enc,
		L1:      nn.NewLinear(2*d, hidden, rng),
		L2:      nn.NewLinear(hidden, len(classes), rng),
		Classes: append([]string(nil), classes...),
	}
	c.buildIndex()
	return c
}

func (c *Classifier) buildIndex() {
	c.classIndex = make(map[string]int, len(c.Classes))
	for i, t := range c.Classes {
		c.classIndex[t] = i
	}
}

// ClassOf returns the class id for a template, or -1 when out of set.
func (c *Classifier) ClassOf(template string) int {
	if id, ok := c.classIndex[template]; ok {
		return id
	}
	return -1
}

// Logits computes 1×classes scores for one source sequence.
func (c *Classifier) Logits(src []int, training bool, rng *rand.Rand) *autograd.Value {
	enc := c.Enc.Encode(src, training, rng)
	pooled := autograd.ConcatCols(meanPoolRows(enc), autograd.GatherRows(enc, []int{enc.T.Rows - 1}))
	h := autograd.GELU(c.L1.Forward(pooled))
	h = autograd.Dropout(h, c.Enc.Config().Dropout, rng, training)
	return c.L2.Forward(h)
}

// meanPoolRows averages the n×d encoder output into 1×d.
func meanPoolRows(x *autograd.Value) *autograd.Value {
	n := x.T.Rows
	return autograd.Scale(autograd.MatMul(onesValue(n), x), 1/float64(n))
}

// onesCache interns the constant 1×n all-ones rows used for mean pooling,
// keyed by n (bounded by MaxLen). The values are read-only and shared
// across concurrent forward passes; graph Free never touches leaves.
var onesCache sync.Map

func onesValue(n int) *autograd.Value {
	if v, ok := onesCache.Load(n); ok {
		return v.(*autograd.Value)
	}
	t := tensor.New(1, n)
	t.Fill(1)
	v, _ := onesCache.LoadOrStore(n, autograd.NewConst(t))
	return v.(*autograd.Value)
}

// PredictTopN returns the N most likely template statements for the next
// query, most likely first (paper Section 4.2.1). It is a one-item
// PredictTopNBatch.
func (c *Classifier) PredictTopN(src []int, n int) []string {
	return c.PredictTopNBatch([][]int{src}, []int{n})[0]
}

// Params returns head parameters plus (unless frozen) encoder parameters.
func (c *Classifier) Params() []nn.Param {
	out := []nn.Param{
		{Name: "head.l1.w", V: c.L1.W}, {Name: "head.l1.b", V: c.L1.B},
		{Name: "head.l2.w", V: c.L2.W}, {Name: "head.l2.b", V: c.L2.B},
	}
	if !c.FreezeEncoder {
		for _, p := range c.Enc.Params() {
			out = append(out, nn.Param{Name: "enc." + p.Name, V: p.V})
		}
	}
	return out
}

// Example is one classification case: the current query's token ids and
// the class id of the next query's template.
type Example struct {
	Src   []int
	Class int
}

// Result reports the fine-tuning run.
type Result struct {
	TrainLosses []float64
	ValLosses   []float64
	Epochs      int
	TrainTime   time.Duration
	// Interrupted marks a run ended early by opts.Stop (cooperative
	// shutdown); the classifier keeps the weights reached so far.
	Interrupted bool
}

// Fit trains the classifier with cross-entropy over template classes,
// early-stopping on validation loss.
func Fit(c *Classifier, trainSet, valSet []Example, opts train.Options) (*Result, error) {
	if len(trainSet) == 0 {
		return nil, fmt.Errorf("classify: empty training set")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	optim := train.NewAdam(opts.LR)
	params := c.Params()
	res := &Result{}
	best := math.Inf(1)
	bad := 0
	order := make([]int, len(trainSet))
	for i := range order {
		order[i] = i
	}
	// Telemetry clock is caller-injected (detrand: the numeric core
	// never reads the wall clock itself).
	now := opts.Clock
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	start := now()
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum, count := 0.0, 0
		for bi := 0; bi < len(order); bi += opts.BatchSize {
			hi := bi + opts.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			for _, idx := range order[bi:hi] {
				ex := trainSet[idx]
				src := ex.Src
				if opts.MaxLen > 0 && len(src) > opts.MaxLen {
					src = src[:opts.MaxLen]
				}
				logits := c.Logits(src, true, rng)
				loss := autograd.CrossEntropy(logits, []int{ex.Class}, -1)
				scaled := autograd.Scale(loss, 1/float64(hi-bi))
				autograd.Backward(scaled)
				sum += loss.T.Data[0]
				count++
				autograd.Free(scaled)
			}
			if opts.ClipNorm > 0 {
				train.ClipGradNorm(params, opts.ClipNorm)
			}
			optim.Step(params)
			if opts.Stop != nil && opts.Stop() {
				res.Interrupted = true
				res.TrainTime = now().Sub(start)
				return res, nil
			}
		}
		res.TrainLosses = append(res.TrainLosses, sum/float64(count))
		val := EvaluateLoss(c, valSet, opts.MaxLen)
		res.ValLosses = append(res.ValLosses, val)
		res.Epochs = epoch + 1
		if opts.Logf != nil {
			opts.Logf("classify epoch %d: train %.4f val %.4f", epoch+1, sum/float64(count), val)
		}
		if val < best-1e-6 {
			best = val
			bad = 0
		} else {
			bad++
			if opts.Patience > 0 && bad >= opts.Patience {
				break
			}
		}
	}
	res.TrainTime = now().Sub(start)
	return res, nil
}

// EvaluateLoss computes the mean classification loss on a set.
func EvaluateLoss(c *Classifier, set []Example, maxLen int) float64 {
	if len(set) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, ex := range set {
		src := ex.Src
		if maxLen > 0 && len(src) > maxLen {
			src = src[:maxLen]
		}
		logits := c.Logits(src, false, nil)
		loss := autograd.CrossEntropy(logits, []int{ex.Class}, -1)
		sum += loss.T.Data[0]
		autograd.Free(loss)
	}
	return sum / float64(len(set))
}

// wire format for Save/Load.
type wireClassifier struct {
	EncBlob            []byte
	Classes            []string
	Hidden             int
	L1W, L1B, L2W, L2B wireTensor
}

type wireTensor struct {
	Rows, Cols int
	Data       []float64
}

// Save serializes the classifier (encoder included).
func (c *Classifier) Save(w io.Writer) error {
	var encBuf bytes.Buffer
	if err := seq2seq.Save(&encBuf, c.Enc); err != nil {
		return fmt.Errorf("classify: save encoder: %w", err)
	}
	wire := wireClassifier{
		EncBlob: encBuf.Bytes(),
		Classes: c.Classes,
		Hidden:  c.L1.W.T.Cols,
		L1W:     toWire(c.L1.W), L1B: toWire(c.L1.B),
		L2W: toWire(c.L2.W), L2B: toWire(c.L2.B),
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a classifier written by Save.
func Load(r io.Reader) (*Classifier, error) {
	var wire wireClassifier
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("classify: load: %w", err)
	}
	enc, err := seq2seq.Load(bytes.NewReader(wire.EncBlob))
	if err != nil {
		return nil, err
	}
	c := New(enc, wire.Hidden, wire.Classes, 0)
	fromWire(c.L1.W, wire.L1W)
	fromWire(c.L1.B, wire.L1B)
	fromWire(c.L2.W, wire.L2W)
	fromWire(c.L2.B, wire.L2B)
	return c, nil
}

func toWire(v *autograd.Value) wireTensor {
	return wireTensor{Rows: v.T.Rows, Cols: v.T.Cols, Data: v.T.Data}
}

func fromWire(v *autograd.Value, w wireTensor) {
	copy(v.T.Data, w.Data)
}
