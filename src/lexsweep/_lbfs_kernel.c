/* The compiled kernel: ordered partition refinement LBFS (lbfs_refine),
 * the adjacency of Graph (graph_adj) and the re-layout of its packed rows
 * (csr_relayout).
 *
 * Built on first use and loaded with ctypes.PyDLL by lexsweep._kernel, so
 * the caller holds the GIL. Each function returns a new Python object, or
 * NULL with a Python exception set.
 *
 * All three share one packed graph format, the CSR (compressed sparse
 * rows): a bytes object of native int32 words, in three sections. The rows
 * are numbered by internal ids 0..n-1, which may differ from the vertex
 * ids. The offsets off[0..n] come first (off[0] is 0, off[n] is 2m); then
 * ord[0..n-1], ord[q] being the vertex at internal id q; then the rows,
 * row q being words 2n + 1 + off[q] up to 2n + 1 + off[q + 1], its
 * neighbours' internal ids in increasing order. An LBFS reads each row
 * once and looks up every neighbour's work slots, so a layout in which
 * neighbours have nearby internal ids keeps those reads in cache. int32
 * ids and offsets limit a graph to n < 2**31 vertices and 2m < 2**31 row
 * entries.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INT32_LIMIT ((Py_ssize_t)1 << 31)

/* graph_adj builds Graph.adj and Graph._csr for Graph.__init__.
 *
 * n is the vertex count and edges a list of pairs, read once, in order.
 * Returns (adj, csr): adj is a tuple of n tuples, row v listing the
 * neighbours of v in increasing order without repeats, all rows sharing
 * one int object per vertex; csr holds the same rows packed, laid out in
 * vertex order (ord is the identity). It stops
 * early at the first edge that is not a tuple or list of two ints,
 * returning None, so that Graph.__init__ reads the edges in Python; or at
 * the first edge out of range (huge ints included) or a self-loop,
 * returning its index, for Graph.__init__ to raise its GraphError. Raises
 * ValueError, before allocating anything, unless n < 2**31 and
 * 2 * len(edges) < 2**31.
 */
PyObject *graph_adj(PyObject *n_arg, PyObject *edges)
{
    if (!PyList_Check(edges))
        return PyErr_Format(PyExc_TypeError, "edges must be a list");
    Py_ssize_t n = PyNumber_AsSsize_t(n_arg, PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t m = PyList_GET_SIZE(edges);
    if (n < 0 || n >= INT32_LIMIT || m >= INT32_LIMIT / 2)
        return PyErr_Format(PyExc_ValueError,
                            "cannot build %zd vertices and %zd edges: the int32 CSR "
                            "needs n < 2**31 and 2m < 2**31", n, m);
    /* off: row starts (n + 1); at: fill cursors (n); rows: the rows in
       input order (2m). The endpoints as read, and then the sorted rows,
       go straight into the CSR's row words. */
    int32_t *off = calloc(2 * n + 1 + 2 * m, sizeof *off);
    PyObject **ids = calloc(n + 1, sizeof *ids);
    PyObject *csr = PyBytes_FromStringAndSize(NULL, (2 * n + 1 + 2 * m) * sizeof(int32_t));
    PyObject *adj = NULL, *result = NULL;
    if (!off || !ids || !csr) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    int32_t *at = off + n + 1, *rows = at + n;
    int32_t *ends = (int32_t *)PyBytes_AS_STRING(csr) + 2 * n + 1;

    /* reading an int runs no Python code, so edges cannot change under us */
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *e = PyList_GET_ITEM(edges, i);
        if (!(PyTuple_CheckExact(e) || PyList_CheckExact(e)) ||
            PySequence_Fast_GET_SIZE(e) != 2 ||
            !PyLong_Check(PySequence_Fast_GET_ITEM(e, 0)) ||
            !PyLong_Check(PySequence_Fast_GET_ITEM(e, 1))) {
            result = Py_NewRef(Py_None);
            goto done;
        }
        for (int k = 0; k < 2; k++) {
            int overflow;
            long long w = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(e, k),
                                                       &overflow);
            if (overflow || w < 0 || w >= n) {
                result = PyLong_FromSsize_t(i);
                goto done;
            }
            ends[2 * i + k] = (int32_t)w;
            off[w + 1]++;
        }
        if (ends[2 * i] == ends[2 * i + 1]) {
            result = PyLong_FromSsize_t(i);
            goto done;
        }
    }
    for (Py_ssize_t v = 0; v < n; v++)
        off[v + 1] += off[v];

    /* rows: the neighbours of each vertex in input order */
    memcpy(at, off, n * sizeof *at);
    for (Py_ssize_t i = 0; i < m; i++) {
        int32_t u = ends[2 * i], v = ends[2 * i + 1];
        rows[at[u]++] = v;
        rows[at[v]++] = u;
    }
    /* The transpose lists, for each v, the u whose row holds v, in
       increasing order of u. The graph is symmetric, so those u are the
       neighbours of v: ends now holds the rows sorted. */
    memcpy(at, off, n * sizeof *at);
    for (int32_t u = 0; u < n; u++)
        for (int32_t j = off[u]; j < off[u + 1]; j++)
            ends[at[rows[j]]++] = u;

    /* a repeated edge gives a run of equal neighbours: keep one, packing
       the rows to the left and writing the new offsets */
    int32_t *csr_off = (int32_t *)PyBytes_AS_STRING(csr);
    int32_t k = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        csr_off[n + 1 + v] = (int32_t)v;
        csr_off[v] = k;
        for (int32_t j = off[v]; j < off[v + 1]; j++)
            if (k == csr_off[v] || ends[j] != ends[k - 1])
                ends[k++] = ends[j];
    }
    csr_off[n] = k;
    if (k < 2 * m && _PyBytes_Resize(&csr, (2 * n + 1 + k) * sizeof(int32_t)) < 0)
        goto done;
    csr_off = (int32_t *)PyBytes_AS_STRING(csr);
    ends = csr_off + 2 * n + 1;

    for (Py_ssize_t v = 0; v < n; v++)
        if (!(ids[v] = PyLong_FromSsize_t(v)))
            goto done;
    if (!(adj = PyTuple_New(n)))
        goto done;
    for (Py_ssize_t v = 0; v < n; v++) {
        Py_ssize_t deg = csr_off[v + 1] - csr_off[v];
        PyObject *t = PyTuple_New(deg);
        if (!t)
            goto done;
        for (Py_ssize_t j = 0; j < deg; j++)
            PyTuple_SET_ITEM(t, j, Py_NewRef(ids[ends[csr_off[v] + j]]));
        PyTuple_SET_ITEM(adj, v, t);
    }
    result = PyTuple_Pack(2, adj, csr);

done:
    for (Py_ssize_t v = 0; ids && v < n; v++)
        Py_XDECREF(ids[v]);
    free(ids);
    free(off);
    Py_XDECREF(adj);
    Py_XDECREF(csr);
    return result;
}

/* The words of csr, when it is bytes that pack a graph on n vertices: a
 * whole number of words, 2n + 1 + off[n] of them, off[0] == 0 and offsets
 * that never decrease, which keeps every row inside the buffer. Else NULL
 * with TypeError or ValueError set. */
static const int32_t *csr_words(PyObject *csr, Py_ssize_t n)
{
    if (!PyBytes_Check(csr)) {
        PyErr_SetString(PyExc_TypeError, "csr must be bytes");
        return NULL;
    }
    Py_ssize_t words = PyBytes_GET_SIZE(csr) / (Py_ssize_t)sizeof(int32_t);
    const int32_t *off = (const int32_t *)PyBytes_AS_STRING(csr);
    if (n >= INT32_LIMIT || PyBytes_GET_SIZE(csr) % sizeof(int32_t) || words < 2 * n + 1 ||
        off[0] != 0 || off[n] < 0 || words != 2 * n + 1 + off[n]) {
        PyErr_Format(PyExc_ValueError,
                     "the csr of %zd words does not hold %zd vertices", words, n);
        return NULL;
    }
    for (Py_ssize_t v = 0; v < n; v++)
        if (off[v] > off[v + 1]) {
            PyErr_Format(PyExc_ValueError, "csr offset %zd decreases", v + 1);
            return NULL;
        }
    return off;
}

/* Fills inv[0..n-1] with the inverse of the csr's order section ord:
 * inv[v] is the internal id of vertex v. Returns -1 with ValueError set
 * unless ord is a permutation of 0..n-1. */
static int csr_inverse(const int32_t *ord, Py_ssize_t n, int32_t *inv)
{
    for (Py_ssize_t v = 0; v < n; v++)
        inv[v] = -1;
    for (Py_ssize_t q = 0; q < n; q++) {
        int32_t v = ord[q];
        if (v < 0 || v >= n || inv[v] != -1) {
            PyErr_Format(PyExc_ValueError, "csr order entry %zd, vertex %d, "
                         "is out of range or repeated", q, (int)v);
            return -1;
        }
        inv[v] = (int32_t)q;
    }
    return 0;
}

/* lbfs_refine is the same algorithm as search._lbfs_core (Habib,
 * McConnell, Paul and Viennot, "Lex-BFS and partition refinement", TCS
 * 2000), over flat int32 work arrays. Unnumbered vertices occupy arr[p:],
 * tiled by classes in label order; visiting u splits each class into
 * neighbours-first and non-neighbours. Within the head class the vertex
 * rightmost in prior wins, so the output does not depend on the csr's
 * layout. The work runs on internal ids: the prior and the start are
 * translated in, the visit order out.
 *
 * csr is Graph._csr, each row read once, when its vertex is numbered;
 * prior is a tuple or list of n integers, start an integer, both in vertex
 * ids. Returns None when prior is not a permutation of 0..n-1, say for an
 * entry that is not an integer. Otherwise returns (seq, pos), two tuples
 * of vertex ids that share one int object per vertex: seq is the visit
 * order and pos its inverse, pos[seq[i]] == i. Raises TypeError or
 * ValueError on other malformed input: a start out of range, or a csr that
 * is not bytes, does not hold n vertices, or has offsets that decrease, an
 * order that is not a permutation, an out-of-range neighbour or a repeat
 * of an unnumbered one. Raises MemoryError when the work arrays cannot be
 * allocated.
 */
PyObject *lbfs_refine(PyObject *csr, PyObject *start_arg, PyObject *prior)
{
    if (!(PyTuple_Check(prior) || PyList_Check(prior)))
        return PyErr_Format(PyExc_TypeError, "prior must be a tuple or list");
    Py_ssize_t n = PySequence_Fast_GET_SIZE(prior);
    const int32_t *off = csr_words(csr, n);
    if (!off)
        return NULL;
    const int32_t *ord = off + n + 1, *nbrs = ord + n;
    /* inv, prio, arr, loc, cls: n slots each; cstart, cend, moved (zeroed)
       and touched: cap each. A split adds one non-empty class and a step
       empties at most one, so at most n + 2 classes are ever created. */
    Py_ssize_t cap = n + 2;
    int32_t *inv = calloc(5 * n + 4 * cap, sizeof *inv);
    PyObject **ids = calloc(n + 1, sizeof *ids);
    PyObject *seq = NULL, *pos = NULL, *result = NULL;
    if (!inv || !ids) {
        PyErr_NoMemory();
        goto done;
    }
    int32_t *prio = inv + n, *arr = prio + n, *loc = arr + n, *cls = loc + n;
    int32_t *cstart = cls + n, *cend = cstart + cap, *moved = cend + cap;
    int32_t *touched = moved + cap;
    if (csr_inverse(ord, n, inv) < 0)
        goto done;

    /* prio[q] = n - 1 - (position of ord[q] in prior), so the least prio
       is the rightmost. An entry that is not an int is read through its
       __index__, which may run Python code and change a list prior under
       us, so the size is read afresh and the entry held while it runs. */
    for (Py_ssize_t q = 0; q < n; q++)
        prio[q] = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (i >= PySequence_Fast_GET_SIZE(prior)) {
            result = Py_NewRef(Py_None);
            goto done;
        }
        PyObject *item = Py_NewRef(PySequence_Fast_GET_ITEM(prior, i));
        Py_ssize_t v = PyNumber_AsSsize_t(item, NULL);
        Py_DECREF(item);
        if (v == -1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_TypeError))
                goto done;
            PyErr_Clear();
        }
        if (v < 0 || v >= n || prio[inv[v]] != -1) {
            result = Py_NewRef(Py_None);
            goto done;
        }
        prio[inv[v]] = (int32_t)(n - 1 - i);
    }
    Py_ssize_t start = PyNumber_AsSsize_t(start_arg, NULL);
    if (start == -1 && PyErr_Occurred())
        goto done;
    if (start < 0 || start >= n) {
        PyErr_Format(PyExc_ValueError, "start %zd is not a vertex of a graph on %zd",
                     start, n);
        goto done;
    }
    start = inv[start];

    for (int32_t v = 0; v < n; v++) {
        arr[v] = v;
        loc[v] = v;
        cls[v] = 1;
    }
    arr[0] = (int32_t)start;
    arr[start] = 0;
    loc[0] = (int32_t)start;
    loc[start] = 0;
    cls[start] = 0;
    cstart[0] = 0;
    cend[0] = 1;
    cstart[1] = 1;
    cend[1] = (int32_t)n;
    int32_t nclasses = 2;

    for (int32_t p = 0; p < n; p++) {
        int32_t head = cls[arr[p]];
        int32_t u = arr[p];
        int32_t bp = prio[u];
        int32_t bi = p;
        for (int32_t i = p + 1; i < cend[head]; i++) {
            int32_t v = arr[i];
            if (prio[v] < bp) {
                u = v;
                bp = prio[v];
                bi = i;
            }
        }
        if (bi != p) {
            arr[bi] = arr[p];
            loc[arr[bi]] = bi;
            arr[p] = u;
            loc[u] = p;
        }
        cstart[head] = p + 1;

        int32_t ntouched = 0;
        for (int32_t e = off[u]; e < off[u + 1]; e++) {
            int32_t w = nbrs[e];
            /* a repeated neighbour already sits in [cstart, cstart + moved) */
            if (w < 0 || w >= n ||
                (loc[w] > p && loc[w] < cstart[cls[w]] + moved[cls[w]])) {
                PyErr_Format(PyExc_ValueError, "row entry %d of vertex %d "
                             "is out of range or repeated", (int)w, (int)ord[u]);
                goto done;
            }
            if (loc[w] <= p)
                continue;
            int32_t c = cls[w];
            int32_t mv = moved[c];
            if (mv == 0)
                touched[ntouched++] = c;
            int32_t j = cstart[c] + mv;
            int32_t i = loc[w];
            if (i != j) {
                int32_t x = arr[j];
                arr[j] = w;
                arr[i] = x;
                loc[w] = j;
                loc[x] = i;
            }
            moved[c] = mv + 1;
        }
        /* reset moved and split the touched classes */
        for (int32_t t = 0; t < ntouched; t++) {
            int32_t c = touched[t];
            int32_t mv = moved[c];
            moved[c] = 0;
            if (mv < cend[c] - cstart[c]) {
                int32_t nc = nclasses++;
                int32_t ns = cstart[c];
                int32_t ne = ns + mv;
                cstart[nc] = ns;
                cend[nc] = ne;
                for (int32_t idx = ns; idx < ne; idx++)
                    cls[arr[idx]] = nc;
                cstart[c] = ne;
            }
        }
    }

    /* arr[:n] now holds the visit order in internal ids, and ord turns it
       into vertex ids. The ints are made in visit order, so that the next
       sweep, reading this one as its prior, walks them in the order they
       lie in memory. */
    for (Py_ssize_t i = 0; i < n; i++)
        if (!(ids[ord[arr[i]]] = PyLong_FromSsize_t(ord[arr[i]])))
            goto done;
    if (!(seq = PyTuple_New(n)) || !(pos = PyTuple_New(n)))
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        int32_t v = ord[arr[i]];
        PyTuple_SET_ITEM(seq, i, Py_NewRef(ids[v]));
        PyTuple_SET_ITEM(pos, v, Py_NewRef(ids[i]));
    }
    result = PyTuple_Pack(2, seq, pos);

done:
    for (Py_ssize_t v = 0; ids && v < n; v++)
        Py_XDECREF(ids[v]);
    free(ids);
    free(inv);
    Py_XDECREF(seq);
    Py_XDECREF(pos);
    return result;
}

/* csr_relayout returns csr laid out afresh in the order seq, a tuple of
 * the n vertex ids: internal id q of the result is vertex seq[q], so its
 * order section is seq, and its rows, sorted again, hold the same
 * neighbours in the new internal ids. search._refine calls it once per
 * graph, with the seq of the graph's first LBFS, which gives neighbours
 * nearby internal ids on interval and cocomparability graphs.
 *
 * The rows are written as their transpose, as graph_adj writes them,
 * which sorts them in one pass and is the same graph because Graph rows
 * are symmetric; rows whose lengths do not allow that raise ValueError.
 * Raises TypeError for a seq that is not a tuple, or for an entry that is
 * not an integer, and ValueError for a seq that is not a permutation of
 * 0..n-1, or on the malformed csr that lbfs_refine refuses (a repeated
 * neighbour aside). Raises MemoryError when the result or its work arrays
 * cannot be allocated.
 */
PyObject *csr_relayout(PyObject *csr, PyObject *seq)
{
    if (!PyTuple_Check(seq))
        return PyErr_Format(PyExc_TypeError, "seq must be a tuple");
    Py_ssize_t n = PyTuple_GET_SIZE(seq);
    const int32_t *off = csr_words(csr, n);
    if (!off)
        return NULL;
    const int32_t *ord = off + n + 1, *nbrs = ord + n;
    /* inv: each vertex's internal id in csr; to_new: each of those ids'
       internal id in the result; at: the result's fill cursors */
    int32_t *inv = calloc(3 * n + 1, sizeof *inv);
    PyObject *out = PyBytes_FromStringAndSize(NULL, PyBytes_GET_SIZE(csr));
    if (!inv || !out) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
    int32_t *to_new = inv + n, *at = to_new + n;
    int32_t *new_off = (int32_t *)PyBytes_AS_STRING(out);
    int32_t *new_ord = new_off + n + 1, *new_rows = new_ord + n;
    if (csr_inverse(ord, n, inv) < 0)
        goto fail;

    /* an entry that is not an int is read through its __index__, which
       cannot change a tuple; one too large to fit reads as out of range */
    for (Py_ssize_t q = 0; q < n; q++)
        to_new[q] = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = PyNumber_AsSsize_t(PyTuple_GET_ITEM(seq, i), NULL);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < 0 || v >= n || to_new[inv[v]] != -1) {
            PyErr_Format(PyExc_ValueError, "seq is not a permutation of 0..%zd: "
                         "entry %zd is %zd", n - 1, i, v);
            goto fail;
        }
        to_new[inv[v]] = (int32_t)i;
        new_ord[i] = (int32_t)v;
    }
    new_off[0] = 0;
    for (Py_ssize_t q = 0; q < n; q++) {
        int32_t r = inv[new_ord[q]];
        new_off[q + 1] = new_off[q] + (off[r + 1] - off[r]);
        at[q] = new_off[q];
    }
    /* visiting u in increasing new id, u goes next into the row of each of
       its neighbours */
    for (int32_t u = 0; u < n; u++) {
        int32_t r = inv[new_ord[u]];
        for (int32_t e = off[r]; e < off[r + 1]; e++) {
            int32_t w = nbrs[e];
            if (w < 0 || w >= n) {
                PyErr_Format(PyExc_ValueError, "row entry %d of vertex %d "
                             "is out of range", (int)w, (int)new_ord[u]);
                goto fail;
            }
            int32_t nw = to_new[w];
            if (at[nw] == new_off[nw + 1]) {
                PyErr_Format(PyExc_ValueError, "the csr rows are not symmetric: "
                             "vertex %d has too many", (int)ord[w]);
                goto fail;
            }
            new_rows[at[nw]++] = u;
        }
    }
    free(inv);
    return out;

fail:
    free(inv);
    Py_XDECREF(out);
    return NULL;
}
