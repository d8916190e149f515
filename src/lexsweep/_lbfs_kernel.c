/* The compiled kernel: ordered partition refinement LBFS (lbfs_refine)
 * and the adjacency rows of Graph (graph_adj).
 *
 * Built on first use and loaded with ctypes.PyDLL by lexsweep._kernel, so
 * the caller holds the GIL. Each function returns a new Python object, or
 * NULL with a Python exception set.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* graph_adj builds Graph.adj for Graph.__init__ as compressed rows (CSR).
 *
 * n is the vertex count and edges a list of pairs, read once, in order.
 * Returns a tuple of n tuples, row v listing the neighbours of v in
 * increasing order without repeats, all rows sharing one int object per
 * vertex (a scan of a large graph, the LBFS kernel's above all, then reads
 * a compact block of ints, not 2m objects scattered over the heap). It
 * stops early at the first edge that is not a tuple or list of two ints,
 * returning None, so that Graph.__init__ reads the edges in Python; or at
 * the first edge out of range (huge ints included) or a self-loop,
 * returning its index, for Graph.__init__ to raise its GraphError.
 */
PyObject *graph_adj(PyObject *n_arg, PyObject *edges)
{
    if (!PyList_Check(edges))
        return PyErr_Format(PyExc_TypeError, "edges must be a list");
    Py_ssize_t n = PyNumber_AsSsize_t(n_arg, PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t m = PyList_GET_SIZE(edges);
    if (n < 0 || n > PY_SSIZE_T_MAX / 32 || m > PY_SSIZE_T_MAX / 32)
        return PyErr_Format(PyExc_ValueError, "cannot build %zd vertices and %zd edges",
                            n, m);
    /* off: row starts (n + 1); at: fill cursors (n); ends: the endpoints as
       read, later the sorted rows (2m); rows: the rows in input order (2m) */
    int64_t *off = calloc(2 * n + 1 + 4 * m, sizeof *off);
    PyObject **ids = calloc(n + 1, sizeof *ids);
    PyObject *result = NULL;
    if (!off || !ids) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *at = off + n + 1, *ends = at + n, *rows = ends + 2 * m;

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
            ends[2 * i + k] = w;
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
        int64_t u = ends[2 * i], v = ends[2 * i + 1];
        rows[at[u]++] = v;
        rows[at[v]++] = u;
    }
    /* The transpose lists, for each v, the u whose row holds v, in
       increasing order of u. The graph is symmetric, so those u are the
       neighbours of v: ends now holds the rows sorted. */
    memcpy(at, off, n * sizeof *at);
    for (Py_ssize_t u = 0; u < n; u++)
        for (int64_t j = off[u]; j < off[u + 1]; j++)
            ends[at[rows[j]]++] = u;

    for (Py_ssize_t v = 0; v < n; v++)
        if (!(ids[v] = PyLong_FromSsize_t(v)))
            goto done;
    result = PyTuple_New(n);
    for (Py_ssize_t v = 0; result && v < n; v++) {
        /* a repeated edge gives a run of equal neighbours: keep one */
        int64_t *row = ends + off[v];
        Py_ssize_t deg = 0;
        for (int64_t j = 0; j < off[v + 1] - off[v]; j++)
            if (deg == 0 || row[j] != row[deg - 1])
                row[deg++] = row[j];
        PyObject *t = PyTuple_New(deg);
        if (!t) {
            Py_CLEAR(result);
            break;
        }
        for (Py_ssize_t j = 0; j < deg; j++)
            PyTuple_SET_ITEM(t, j, Py_NewRef(ids[row[j]]));
        PyTuple_SET_ITEM(result, v, t);
    }

done:
    for (Py_ssize_t v = 0; ids && v < n; v++)
        Py_XDECREF(ids[v]);
    free(ids);
    free(off);
    return result;
}

/* lbfs_refine is the same algorithm as search._lbfs_core (Habib,
 * McConnell, Paul and Viennot, "Lex-BFS and partition refinement", TCS
 * 2000), over flat int64 work arrays. Unnumbered vertices occupy arr[p:],
 * tiled by classes in label order; visiting u splits each class into
 * neighbours-first and non-neighbours. Within the head class the vertex of
 * smallest prio wins.
 *
 * adj is Graph.adj, a tuple of n tuples of ints, each row read once, when
 * its vertex is numbered; prio is a list of n ints. Returns the visit
 * order as a new tuple of n ints. Raises TypeError or ValueError on
 * malformed input (out-of-range neighbours and repeats of unnumbered ones
 * included), MemoryError when the work arrays cannot be allocated.
 */
PyObject *lbfs_refine(PyObject *adj, int64_t start, PyObject *prio_list)
{
    if (!PyTuple_Check(adj) || !PyList_Check(prio_list))
        return PyErr_Format(PyExc_TypeError, "adj must be a tuple and prio a list");
    Py_ssize_t n = PyTuple_GET_SIZE(adj);
    if (PyList_GET_SIZE(prio_list) != n || start < 0 || start >= n)
        return PyErr_Format(PyExc_ValueError,
                            "prio covers %zd vertices and start is %lld; graph has %zd",
                            PyList_GET_SIZE(prio_list), (long long)start, n);
    /* prio, arr, loc, cls: n slots each; cstart, cend, moved (zeroed) and
       touched: cap each. A split adds one non-empty class and a step
       empties at most one, so at most n + 2 classes are ever created. */
    int64_t cap = 2 * n + 4;
    int64_t *prio = calloc(4 * n + 4 * cap, sizeof *prio);
    if (!prio)
        return PyErr_NoMemory();
    int64_t *arr = prio + n, *loc = arr + n, *cls = loc + n, *cstart = cls + n;
    int64_t *cend = cstart + cap, *moved = cend + cap, *touched = moved + cap;
    PyObject *result = NULL;

    for (int64_t v = 0; v < n; v++) {
        /* PyLong_AsLongLong would call __index__ on a non-int, and that
           could shrink the list under us */
        PyObject *item = PyList_GET_ITEM(prio_list, v);
        if (!PyLong_Check(item)) {
            PyErr_Format(PyExc_TypeError, "prio[%lld] is not an int", (long long)v);
            goto done;
        }
        prio[v] = PyLong_AsLongLong(item);
        if (prio[v] == -1 && PyErr_Occurred())
            goto done;
        arr[v] = v;
        loc[v] = v;
        cls[v] = 1;
    }
    arr[0] = start;
    arr[start] = 0;
    loc[0] = start;
    loc[start] = 0;
    cls[start] = 0;
    cstart[0] = 0;
    cend[0] = 1;
    cstart[1] = 1;
    cend[1] = n;
    int64_t nclasses = 2;

    for (int64_t p = 0; p < n; p++) {
        int64_t head = cls[arr[p]];
        int64_t u = arr[p];
        int64_t bp = prio[u];
        int64_t bi = p;
        for (int64_t i = p + 1; i < cend[head]; i++) {
            int64_t v = arr[i];
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

        PyObject *row = PyTuple_GET_ITEM(adj, u);
        if (!PyTuple_Check(row)) {
            PyErr_Format(PyExc_TypeError, "adj[%lld] is not a tuple", (long long)u);
            goto done;
        }
        Py_ssize_t deg = PyTuple_GET_SIZE(row);
        int64_t ntouched = 0;
        for (Py_ssize_t e = 0; e < deg; e++) {
            int64_t w = PyLong_AsLongLong(PyTuple_GET_ITEM(row, e));
            /* a repeated neighbour already sits in [cstart, cstart + moved) */
            if (w < 0 || w >= n ||
                (loc[w] > p && loc[w] < cstart[cls[w]] + moved[cls[w]])) {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError, "neighbour %lld of vertex %lld "
                                 "is out of range or repeated",
                                 (long long)w, (long long)u);
                goto done;
            }
            if (loc[w] <= p)
                continue;
            int64_t c = cls[w];
            int64_t mv = moved[c];
            if (mv == 0)
                touched[ntouched++] = c;
            int64_t j = cstart[c] + mv;
            int64_t i = loc[w];
            if (i != j) {
                int64_t x = arr[j];
                arr[j] = w;
                arr[i] = x;
                loc[w] = j;
                loc[x] = i;
            }
            moved[c] = mv + 1;
        }
        /* reset moved and split the touched classes */
        for (int64_t t = 0; t < ntouched; t++) {
            int64_t c = touched[t];
            int64_t mv = moved[c];
            moved[c] = 0;
            if (mv < cend[c] - cstart[c]) {
                int64_t nc = nclasses++;
                int64_t ns = cstart[c];
                int64_t ne = ns + mv;
                cstart[nc] = ns;
                cend[nc] = ne;
                for (int64_t idx = ns; idx < ne; idx++)
                    cls[arr[idx]] = nc;
                cstart[c] = ne;
            }
        }
    }

    /* arr[:n] now holds the visit order */
    result = PyTuple_New(n);
    for (int64_t p = 0; result && p < n; p++) {
        PyObject *item = PyLong_FromLongLong(arr[p]);
        if (!item)
            Py_CLEAR(result);
        else
            PyTuple_SET_ITEM(result, p, item);
    }

done:
    free(prio);
    return result;
}
