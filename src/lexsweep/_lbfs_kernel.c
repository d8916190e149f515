/* Ordered partition refinement LBFS.
 *
 * The same algorithm as search._lbfs_core (Habib, McConnell, Paul and
 * Viennot, "Lex-BFS and partition refinement", TCS 2000), over flat
 * int64 work arrays. Unnumbered vertices occupy arr[p:], tiled by classes
 * in label order; visiting u splits each class into neighbours-first and
 * non-neighbours. Within the head class the vertex of smallest prio wins.
 *
 * adj is Graph.adj, a tuple of n tuples of ints, each row read once, when
 * its vertex is numbered; prio is a list of n ints. The caller holds the
 * GIL (the library is loaded with ctypes.PyDLL). Built on first use by
 * lexsweep.search. Returns the visit order as a new tuple of n ints, or
 * NULL with a Python exception set: TypeError or ValueError on malformed
 * input (out-of-range neighbours and repeats of unnumbered ones included),
 * MemoryError when the work arrays cannot be allocated.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

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
