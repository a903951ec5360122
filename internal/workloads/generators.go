package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"activego/internal/inputs"
	"activego/internal/lang/interp"
	"activego/internal/lang/value"
	"activego/internal/tpch"
)

// ---- blackscholes ----

const srcBlackscholes = `total = 0.0
cnt = 0
for blk in range(8):
    opts = load_block("options", blk, 8)
    s = col(opts, "s")
    k = col(opts, "k")
    t = col(opts, "t")
    sig = col(opts, "sigma")
    d1 = bs_d1(s, k, t, 0.02, sig)
    d2 = vsub(d1, vmul(sig, vsqrt(t)))
    n1 = norm_cdf(d1)
    n2 = norm_cdf(d2)
    price = bs_price(s, k, t, 0.02, n1, n2)
    total = total + vsum(price)
    cnt = cnt + vlen(price)
avg = total / cnt
`

func buildBlackscholes(p Params) *Instance {
	spec, _ := ByName("blackscholes")
	rows := int(spec.Bytes(p) / 32)
	rng := rand.New(rand.NewSource(p.Seed))
	s := make([]float64, rows)
	k := make([]float64, rows)
	t := make([]float64, rows)
	sig := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s[i] = 50 + 100*rng.Float64()
		k[i] = s[i] * (0.8 + 0.4*rng.Float64())
		t[i] = 0.1 + 1.9*rng.Float64()
		sig[i] = 0.1 + 0.4*rng.Float64()
	}
	table := value.NewTable(
		[]string{"s", "k", "t", "sigma"},
		[]value.Value{value.NewVec(s), value.NewVec(k), value.NewVec(t), value.NewVec(sig)})
	reg := inputs.NewRegistry()
	reg.Add("options", table, inputs.ModeRows)
	check := func(env *interp.Env) error {
		const r = 0.02
		var sum float64
		for i := 0; i < rows; i++ {
			v := sig[i] * math.Sqrt(t[i])
			d1 := (math.Log(s[i]/k[i]) + (r+0.5*sig[i]*sig[i])*t[i]) / v
			d2 := d1 - v
			n1 := 0.5 * math.Erfc(-d1/math.Sqrt2)
			n2 := 0.5 * math.Erfc(-d2/math.Sqrt2)
			sum += s[i]*n1 - k[i]*math.Exp(-r*t[i])*n2
		}
		return checkScalar(env, "avg", sum/float64(rows), 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcBlackscholes, Registry: reg, Check: check}
}

// ---- kmeans ----

const srcKMeans = `pts = load("points")
c = load("centroids")
for i in range(2):
    labels = kmeans_assign(pts, c)
    c = kmeans_update(pts, labels, 4)
labels = kmeans_assign(pts, c)
assigned = vlen(labels)
`

func buildKMeans(p Params) *Instance {
	spec, _ := ByName("kmeans")
	const d, k = 16, 4
	n := int(spec.Bytes(p) / (d * 8))
	rng := rand.New(rand.NewSource(p.Seed))
	centers := value.NewMat(k, d)
	for i := range centers.Data {
		centers.Data[i] = 10 * rng.NormFloat64()
	}
	pts := value.NewMat(n, d)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		for j := 0; j < d; j++ {
			pts.Set(i, j, centers.At(c, j)+rng.NormFloat64())
		}
	}
	init := value.NewMat(k, d)
	copy(init.Data, centers.Data)
	for i := range init.Data {
		init.Data[i] += 0.5 * rng.NormFloat64()
	}
	reg := inputs.NewRegistry()
	reg.Add("points", pts, inputs.ModeRows)
	reg.Add("centroids", init, inputs.ModeWhole)
	check := func(env *interp.Env) error {
		want := refKMeans(pts, init, k, 2)
		return checkMat(env, "c", want, 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcKMeans, Registry: reg, Check: check}
}

func refKMeans(pts, init *value.Mat, k, iters int) *value.Mat {
	d := pts.Cols
	c := value.NewMat(k, d)
	copy(c.Data, init.Data)
	for it := 0; it < iters; it++ {
		next := value.NewMat(k, d)
		counts := make([]int, k)
		for i := 0; i < pts.Rows; i++ {
			best, bestD := 0, math.Inf(1)
			for ci := 0; ci < k; ci++ {
				var dist float64
				for j := 0; j < d; j++ {
					diff := pts.At(i, j) - c.At(ci, j)
					dist += diff * diff
				}
				if dist < bestD {
					bestD = dist
					best = ci
				}
			}
			counts[best]++
			for j := 0; j < d; j++ {
				next.Data[best*d+j] += pts.At(i, j)
			}
		}
		for ci := 0; ci < k; ci++ {
			if counts[ci] == 0 {
				continue
			}
			inv := 1 / float64(counts[ci])
			for j := 0; j < d; j++ {
				next.Data[ci*d+j] *= inv
			}
		}
		c = next
	}
	return c
}

// ---- lightgbm ----

const srcLightGBM = `model = load("model")
total = 0.0
cnt = 0
for blk in range(8):
    x = load_block("features", blk, 8)
    raw = gbdt_predict(model, x)
    prob = sigmoid(raw)
    total = total + vsum(prob)
    cnt = cnt + vlen(prob)
avg = total / cnt
`

func buildLightGBM(p Params) *Instance {
	spec, _ := ByName("lightgbm")
	const features, trees, depth = 16, 12, 4
	n := int(spec.Bytes(p) / (features * 8))
	rng := rand.New(rand.NewSource(p.Seed))
	model := genModel(rng, trees, depth, features)
	feats := value.NewMat(n, features)
	for i := range feats.Data {
		feats.Data[i] = rng.Float64()
	}
	reg := inputs.NewRegistry()
	reg.Add("model", model, inputs.ModeWhole)
	reg.Add("features", feats, inputs.ModeRows)
	check := func(env *interp.Env) error {
		var sum float64
		for i := 0; i < n; i++ {
			row := feats.Data[i*features : (i+1)*features]
			var score float64
			for _, tree := range model.Trees {
				node := int32(0)
				for tree[node].Feature >= 0 {
					tn := tree[node]
					if row[tn.Feature] <= tn.Thresh {
						node = tn.Left
					} else {
						node = tn.Right
					}
				}
				score += tree[node].Value
			}
			sum += 1 / (1 + math.Exp(-score))
		}
		return checkScalar(env, "avg", sum/float64(n), 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcLightGBM, Registry: reg, Check: check}
}

// genModel builds a full binary tree ensemble with random splits.
func genModel(rng *rand.Rand, trees, depth, features int) *value.Model {
	m := &value.Model{Features: features}
	for t := 0; t < trees; t++ {
		// Full binary tree: 2^depth - 1 internal nodes, 2^depth leaves.
		internal := (1 << depth) - 1
		total := internal + (1 << depth)
		nodes := make([]value.TreeNode, total)
		for i := 0; i < internal; i++ {
			nodes[i] = value.TreeNode{
				Feature: rng.Intn(features),
				Thresh:  rng.Float64(),
				Left:    int32(2*i + 1),
				Right:   int32(2*i + 2),
			}
		}
		for i := internal; i < total; i++ {
			nodes[i] = value.TreeNode{Feature: -1, Value: 0.1 * rng.NormFloat64()}
		}
		m.Trees = append(m.Trees, nodes)
	}
	return m
}

// ---- matrixmul ----

const srcMatrixMul = `a = load("mat_a")
b = load("mat_b")
c = matmul(a, b)
norm = mat_frobenius(c)
`

func buildMatrixMul(p Params) *Instance {
	spec, _ := ByName("matrixmul")
	n := int(math.Sqrt(float64(spec.Bytes(p)) / 16))
	rng := rand.New(rand.NewSource(p.Seed))
	a := randMat(rng, n, n)
	b := randMat(rng, n, n)
	reg := inputs.NewRegistry()
	reg.Add("mat_a", a, inputs.ModeSquare)
	reg.Add("mat_b", b, inputs.ModeSquare)
	check := func(env *interp.Env) error {
		c := refMatMul(a, b)
		var frob float64
		for _, x := range c.Data {
			frob += x * x
		}
		return checkScalar(env, "norm", frob, 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcMatrixMul, Registry: reg, Check: check}
}

func randMat(rng *rand.Rand, rows, cols int) *value.Mat {
	m := value.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// refMatMul computes A·B for the reference checks. It reads raw slices,
// transposes B once so each dot product walks two contiguous rows, and
// sums each dot product in four interleaved partial sums: an order the
// matmul builtin (ikj, one running sum per output) never uses, so the
// check stays independent of the kernel it checks; tolerances absorb the
// rounding difference.
func refMatMul(a, b *value.Mat) *value.Mat {
	n, k, m := a.Rows, a.Cols, b.Cols
	bt := make([]float64, m*k) // column j of B is bt[j*k : (j+1)*k]
	for p := 0; p < k; p++ {
		for j, x := range b.Data[p*m : (p+1)*m] {
			bt[j*k+p] = x
		}
	}
	out := value.NewMat(n, m)
	for i := 0; i < n; i++ {
		ar := a.Data[i*k : (i+1)*k]
		for j := 0; j < m; j++ {
			bc := bt[j*k : (j+1)*k]
			var s0, s1, s2, s3 float64
			p := 0
			for ; p+4 <= k; p += 4 {
				s0 += ar[p] * bc[p]
				s1 += ar[p+1] * bc[p+1]
				s2 += ar[p+2] * bc[p+2]
				s3 += ar[p+3] * bc[p+3]
			}
			for ; p < k; p++ {
				s0 += ar[p] * bc[p]
			}
			out.Data[i*m+j] = (s0 + s1) + (s2 + s3)
		}
	}
	return out
}

// ---- mixedgemm ----

const srcMixedGEMM = `b = load("gm_b")
w = load("gm_w")
total = 0.0
for blk in range(8):
    a = load_block("gm_a", blk, 8)
    t1 = matmul(a, b)
    t2 = matmul(t1, w)
    r = mat_rowsum(t2)
    total = total + vsum(r)
`

func buildMixedGEMM(p Params) *Instance {
	spec, _ := ByName("mixedgemm")
	// Mixed shapes: a tall activation matrix flows through two small
	// projection GEMMs and a reducing epilogue — the inference-style GEMM
	// mix where the data is large, the per-row compute modest, and the
	// output a small fraction of the input (the ISP-friendly GEMM case,
	// in contrast to MatrixMul's square compute-bound one).
	const k, h, o = 32, 8, 4
	n := int(spec.Bytes(p) / (k * 8))
	rng := rand.New(rand.NewSource(p.Seed))
	a := randMat(rng, n, k)
	b := randMat(rng, k, h)
	w := randMat(rng, h, o)
	reg := inputs.NewRegistry()
	reg.Add("gm_a", a, inputs.ModeRows)
	reg.Add("gm_b", b, inputs.ModeWhole)
	reg.Add("gm_w", w, inputs.ModeWhole)
	check := func(env *interp.Env) error {
		t1 := refMatMul(a, b)
		t2 := refMatMul(t1, w)
		var total float64
		for _, x := range t2.Data {
			total += x
		}
		return checkScalar(env, "total", total, 1e-6)
	}
	return &Instance{Name: spec.Name, Source: srcMixedGEMM, Registry: reg, Check: check}
}

// ---- pagerank ----

const srcPageRank = `adj = load("adjacency")
g = csr_from_dense(adj, 0.000001)
n = nrows(g)
r = full(n, 1.0 / n)
for i in range(10):
    r = pagerank_step(g, r, 0.85)
top = vmax(r)
`

func buildPageRank(p Params) *Instance {
	spec, _ := ByName("pagerank")
	n := int(math.Sqrt(float64(spec.Bytes(p)) / 8))
	rng := rand.New(rand.NewSource(p.Seed))
	adj := genDecayingDense(rng, n, 0.16)
	reg := inputs.NewRegistry()
	reg.Add("adjacency", adj, inputs.ModeSquare)
	check := func(env *interp.Env) error {
		g := refCSR(adj, 1e-6)
		r := make([]float64, n)
		for i := range r {
			r[i] = 1 / float64(n)
		}
		for it := 0; it < 10; it++ {
			r = refPageRankStep(g, r, 0.85)
		}
		top := math.Inf(-1)
		for _, x := range r {
			top = math.Max(top, x)
		}
		return checkScalar(env, "top", top, 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcPageRank, Registry: reg, Check: check}
}

// genDecayingDense builds an n×n matrix whose nonzero density decays from
// the top-left corner: keep probability base·(1-0.9·i/n)·(1-0.9·j/n).
// Prefix-sampled blocks are therefore denser than the full matrix — the
// honest mechanism behind the paper's CSR volume over-estimation (§V).
// Kept entries are scaled so row sums stay O(1) and power iterations
// remain bounded.
func genDecayingDense(rng *rand.Rand, n int, base float64) *value.Mat {
	m := value.NewMat(n, n)
	scale := 1 / (base * float64(n) * 0.55 * 0.55)
	for i := 0; i < n; i++ {
		pi := 1 - 0.9*float64(i)/float64(n)
		for j := 0; j < n; j++ {
			pj := 1 - 0.9*float64(j)/float64(n)
			if rng.Float64() < base*pi*pj {
				m.Set(i, j, (0.5+0.5*rng.Float64())*scale)
			}
		}
	}
	return m
}

func refCSR(m *value.Mat, thr float64) *value.CSR {
	out := &value.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int32, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			if v > thr || v < -thr {
				out.ColIdx = append(out.ColIdx, int32(j))
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = int32(len(out.Val))
	}
	return out
}

func refPageRankStep(g *value.CSR, r []float64, damping float64) []float64 {
	out := make([]float64, g.Rows)
	base := (1 - damping) / float64(g.Rows)
	for i := 0; i < g.Rows; i++ {
		var s float64
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			s += g.Val[p] * r[g.ColIdx[p]]
		}
		out[i] = damping*s + base
	}
	return out
}

// ---- sparsemv ----

const srcSparseMV = `dense = load("spmv_mat")
a = csr_from_dense(dense, 0.000001)
x = full(ncols(a), 1.0)
y = spmv(a, x)
for i in range(3):
    y = vdiv(y, vmax(y) + 1.0)
    y = spmv(a, y)
total = vsum(y)
`

func buildSparseMV(p Params) *Instance {
	spec, _ := ByName("sparsemv")
	n := int(math.Sqrt(float64(spec.Bytes(p)) / 8))
	rng := rand.New(rand.NewSource(p.Seed))
	dense := genDecayingDense(rng, n, 0.16)
	reg := inputs.NewRegistry()
	reg.Add("spmv_mat", dense, inputs.ModeSquare)
	check := func(env *interp.Env) error {
		g := refCSR(dense, 1e-6)
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		y := refSpMV(g, x)
		for it := 0; it < 3; it++ {
			top := math.Inf(-1)
			for _, v := range y {
				top = math.Max(top, v)
			}
			for i := range y {
				y[i] /= top + 1
			}
			y = refSpMV(g, y)
		}
		var total float64
		for _, v := range y {
			total += v
		}
		return checkScalar(env, "total", total, 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcSparseMV, Registry: reg, Check: check}
}

func refSpMV(g *value.CSR, x []float64) []float64 {
	out := make([]float64, g.Rows)
	for i := 0; i < g.Rows; i++ {
		var s float64
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			s += g.Val[p] * x[g.ColIdx[p]]
		}
		out[i] = s
	}
	return out
}

// ---- TPC-H ----

const srcTPCH1 = `acc = q1_zero()
for blk in range(8):
    t = load_block("lineitem", blk, 8)
    f = tfilter(t, "l_shipdate", "<=", 2436)
    acc = q1_merge(acc, q1_agg(f))
r = q1_final(acc)
groups = trows(r)
`

func buildTPCH1(p Params) *Instance {
	spec, _ := ByName("tpch-1")
	reg, lineitem, _ := genTPCH(spec, p)
	check := func(env *interp.Env) error {
		want := tpch.RefQ1(lineitem, tpch.DayQ1Cutoff)
		v, ok := env.Get("r")
		if !ok {
			return fmt.Errorf("workloads: tpch-1: r not bound")
		}
		got, ok := v.(*value.Table)
		if !ok {
			return fmt.Errorf("workloads: tpch-1: r is %v, want table", v.Kind())
		}
		if got.NRows != len(want) {
			return fmt.Errorf("workloads: tpch-1: %d groups, reference %d", got.NRows, len(want))
		}
		sq := got.FloatCol("sum_qty")
		sc := got.FloatCol("sum_charge")
		cnt := got.IntCol("count")
		for i, w := range want {
			if !approxEqual(sq.Data[i], w.SumQty, 1e-9) {
				return fmt.Errorf("workloads: tpch-1 group %d sum_qty %g vs %g", i, sq.Data[i], w.SumQty)
			}
			if !approxEqual(sc.Data[i], w.SumCharge, 1e-9) {
				return fmt.Errorf("workloads: tpch-1 group %d sum_charge %g vs %g", i, sc.Data[i], w.SumCharge)
			}
			if cnt.Data[i] != w.Count {
				return fmt.Errorf("workloads: tpch-1 group %d count %d vs %d", i, cnt.Data[i], w.Count)
			}
		}
		return nil
	}
	return &Instance{Name: spec.Name, Source: srcTPCH1, Registry: reg, Check: check}
}

const srcTPCH6 = `rev = 0.0
for blk in range(8):
    t = load_block("lineitem", blk, 8)
    f1 = tfilter(t, "l_shipdate", ">=", 1461)
    f2 = tfilter(f1, "l_shipdate", "<", 1826)
    f3 = tfilter(f2, "l_discount", ">=", 0.05)
    f4 = tfilter(f3, "l_discount", "<=", 0.07)
    f5 = tfilter(f4, "l_quantity", "<", 24)
    rev = rev + vsum(vmul(col(f5, "l_extendedprice"), col(f5, "l_discount")))
revenue = rev
`

func buildTPCH6(p Params) *Instance {
	spec, _ := ByName("tpch-6")
	reg, lineitem, _ := genTPCH(spec, p)
	check := func(env *interp.Env) error {
		want := tpch.RefQ6(lineitem, tpch.DayEpoch1996, tpch.DayEpoch1996+365, 0.05, 0.07, 24)
		return checkScalar(env, "revenue", want, 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcTPCH6, Registry: reg, Check: check}
}

const srcTPCH14 = `p = load("part")
promo_rev = 0.0
total_rev = 0.0
for blk in range(8):
    l = load_block("lineitem", blk, 8)
    f1 = tfilter(l, "l_shipdate", ">=", 1339)
    f2 = tfilter(f1, "l_shipdate", "<", 1369)
    j = hashjoin(f2, p, "l_partkey", "p_partkey")
    rev = vmul(col(j, "l_extendedprice"), 1.0 - col(j, "l_discount"))
    total_rev = total_rev + vsum(rev)
    promo_rev = promo_rev + vsum(vselect(rev, col(j, "p_promo")))
promo = 100.0 * promo_rev / total_rev
`

func buildTPCH14(p Params) *Instance {
	spec, _ := ByName("tpch-14")
	reg, lineitem, part := genTPCH(spec, p)
	check := func(env *interp.Env) error {
		want := tpch.RefQ14(lineitem, part, tpch.DaySept1995, tpch.DayOct1995)
		return checkScalar(env, "promo", want, 1e-9)
	}
	return &Instance{Name: spec.Name, Source: srcTPCH14, Registry: reg, Check: check}
}

func genTPCH(spec Spec, p Params) (*inputs.Registry, *value.Table, *value.Table) {
	rows := int(spec.Bytes(p) / tpch.LineitemRowBytes)
	parts := rows / 16
	if parts < 256 {
		parts = 256
	}
	lineitem := tpch.GenLineitem(rows, parts, p.Seed)
	part := tpch.GenPart(parts, p.Seed+1)
	reg := inputs.NewRegistry()
	reg.Add("lineitem", lineitem, inputs.ModeRows)
	reg.Add("part", part, inputs.ModeRows)
	return reg, lineitem, part
}
