"""Dense-tensor layer kernel.

All layer math operates on single frames laid out channel-first as
``(C, H, W)`` numpy arrays, with no batch axis.  Every layer implements an
explicit ``forward`` that caches whatever the matching ``backward`` needs;
parameter gradients accumulate into :class:`ParamState.gradient` and are
cleared by the optimizer.

The kernel alone picks a convolution's lowering.  A stride-1 3x3 kernel
with padding 1 runs as nine GEMMs on shifted slices of one zero-padded copy
of its input (:func:`shifted_conv3x3_forward`), summed block by block of
output rows in an accumulator small enough to stay in cache; its input
gradient is the same tap sum over the padded output gradient.  Every other
convolution runs im2col and one GEMM, and 1x1 kernels skip im2col and run
their GEMM on the (strided) input.  Each :class:`Conv2d` keeps the buffer
its lowering builds (the columns or the padded input), hands it back on the
next forward and allocates a new one only when the input extent changes
(or the dtype, which the buffer builders check themselves); the backward
cache references that buffer, which holds because a layer's backward always
follows its own latest forward.

Both kinds of buffer carry a zero border that is written once, at
allocation, and never again: :func:`im2col` copies each kernel tap's valid
window straight from the input and leaves the entries that read padding
zero, and the shifted lowering copies the input into the interior of its
padded buffer and leaves the border rows, the border columns and the two
spare trailing elements zero (its backward pads the output gradient the
same way, in a buffer of its own).  So a buffer may only be refilled for the
input extent (and kernel, stride and padding) it was allocated for: two
extents with the same column count (96x96 and 48x192) put their zeros in
different places.  :func:`col2im` scatter-adds only the valid windows into
an unpadded gradient.

One rule splits the work across cores: the forward deals blocks, and a
training step's backward runs on the calling thread while its weight
gradients run on the pool's first worker.  A pass cuts itself into blocks
fixed by its extents alone and hands them to :func:`run_blocks`, which
deals two or more round-robin to persistent worker threads, the caller's
included.  A shifted layer's blocks are the whole row blocks of its output
(:func:`_block_rows`), the last taking the ragged rows after it;
BatchNorm's and ReLU's are ranges of at least two channels and
:data:`BLOCK_BYTES` of the input (:func:`_channel_blocks`); the forward's
other large passes, the GEMM of every other convolution by output columns,
a resize by chunks of channels and the student's label map by rows, run in
as few near-equal blocks as hold about :data:`BLOCK_BYTES` each
(:func:`block_count`).  At 96x96 in float32 no forward pass of the default
network has two blocks, so nothing splits there.  A network's backward
holds the pool (:func:`deferred_weight_gradients`), so every block of its
passes runs on the calling thread, as where the process may use one
thread.  That number is the CPUs this process may run on over the BLAS
threads each GEMM already uses (asked of OpenBLAS; 1 for another BLAS),
capped by ``JITSTREAM_THREADS``; it decides only who runs the work, so no
bit depends on it.  The workers run only private code and numpy.

Kernel rewrites on the im2col side must stay bit-exact: the same values
reach BLAS in the same layout and every elementwise step keeps its order,
so a run's outputs do not move by a single bit.  A block of a GEMM or resize
is a narrower GEMM than the one-call formulation, whose bits it keeps at the
tested network shapes (the default network at 360x640 and 720x1280, with 4
or 9 classes, in float32); elsewhere (some float64 shapes) it may round
otherwise.  The shifted lowering sums each output in another order than
im2col; the two agree to about 1e-6 relative in float32, and im2col stays
the shifted form's test oracle.

Production code runs in float32; gradient checking runs the same code in
float64.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor extents are inconsistent with a layer's contract."""


def _pair(v) -> tuple[int, int]:
    if isinstance(v, tuple):
        return v
    return (v, v)


@dataclass
class ParamState:
    """One learnable tensor plus its gradient and momentum buffer.

    The three arrays always share one shape and dtype.
    """

    value: np.ndarray
    gradient: np.ndarray
    momentum_buffer: np.ndarray

    @classmethod
    def of(cls, value: np.ndarray) -> "ParamState":
        return cls(value, np.zeros_like(value), np.zeros_like(value))

    def clear_gradient(self) -> None:
        self.gradient[...] = 0


def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int,
                 pad_h: int, pad_w: int) -> tuple[int, int]:
    ho = conv_out_size(h, kh, stride, pad_h)
    wo = conv_out_size(w, kw, stride, pad_w)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv output extent would be {ho}x{wo} for input {h}x{w}, "
                         f"kernel {kh}x{kw}, stride {stride}, pad ({pad_h},{pad_w})")
    return ho, wo


@functools.lru_cache(maxsize=256)
def _valid_taps(size: int, k: int, stride: int, pad: int, out: int):
    """For each kernel offset along one axis: ``(first, last, start)``, the
    output range ``first:last`` whose samples fall inside the input, and the
    input index the first of them reads.  The rest read padding."""
    taps = []
    for i in range(k):
        first = max(0, -((i - pad) // stride))
        last = min(out, (size - 1 + pad - i) // stride + 1)
        taps.append((first, max(first, last), i - pad + stride * first))
    return tuple(taps)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad_h: int, pad_w: int,
           out: np.ndarray | None = None) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``(C, H, W)`` into ``(C*kh*kw, Ho*Wo)`` patch columns.

    Only the entries that read ``x`` are written; those that read padding
    keep the zeros of allocation.  ``out`` is refilled when it has the
    columns' extent and ``x``'s dtype, so it must come from an earlier call
    with an input of the same extent, kernel, stride and padding.
    """
    c, h, w = x.shape
    ho, wo = _conv_out_hw(h, w, kh, kw, stride, pad_h, pad_w)
    shape = (c * kh * kw, ho * wo)
    if out is None or out.shape != shape or out.dtype != x.dtype:
        out = (np.zeros if pad_h or pad_w else np.empty)(shape, dtype=x.dtype)
    cols = out.reshape(c, kh, kw, ho, wo)
    cols_w = _valid_taps(w, kw, stride, pad_w, wo)
    for i, (r0, r1, y0) in enumerate(_valid_taps(h, kh, stride, pad_h, ho)):
        for j, (c0, c1, x0) in enumerate(cols_w):
            cols[:, i, j, r0:r1, c0:c1] = x[:, y0:y0 + stride * (r1 - r0):stride,
                                             x0:x0 + stride * (c1 - c0):stride]
    return out, (ho, wo)


def col2im(dcols: np.ndarray, x_shape: tuple[int, int, int], kh: int, kw: int,
           stride: int, pad_h: int, pad_w: int, out_hw: tuple[int, int]) -> np.ndarray:
    """Scatter-add patch-column gradients back to the input layout; gradients
    of entries that read padding are dropped."""
    c, h, w = x_shape
    ho, wo = out_hw
    # zero fill, then add every tap: assigning the first would keep -0.0
    dx = np.zeros((c, h, w), dtype=dcols.dtype)
    dcols = dcols.reshape(c, kh, kw, ho, wo)
    cols_w = _valid_taps(w, kw, stride, pad_w, wo)
    for i, (r0, r1, y0) in enumerate(_valid_taps(h, kh, stride, pad_h, ho)):
        for j, (c0, c1, x0) in enumerate(cols_w):
            dx[:, y0:y0 + stride * (r1 - r0):stride,
               x0:x0 + stride * (c1 - c0):stride] += dcols[:, i, j, r0:r1, c0:c1]
    return dx


# The shifted lowering sums its nine taps over blocks of whole output rows
# whose accumulator holds at most this many bytes (and at least one row), so
# the eight adds stay in the per-core L2.  Forward / backward ms per layer
# (one OpenBLAS 0.3.31 thread on a 2-core AVX-512 Xeon, numpy 2.4, the range
# of two runs; "unblocked" adds each tap over all rows at once):
#
#   block      64->32 180x320  32->32 180x320  32->32 360x640   64->32 360x640
#   64 KiB     37-51/103-107   24-31/58-69     100-104/248-250  201-209/427-533
#   128 KiB    43-52/106-124   23-26/57-64      96-101/240-250  172-214/433-509
#   256 KiB    48-51/107-121   24-29/60-68     113-118/250-269  177-199/476-516
#   512 KiB    41-54/105-122   26-30/66-70     111-118/263-267  220-225/491-495
#   1 MiB      51-59/125-128   29-34/67-73     120-128/271      223-239/509-522
#   2 MiB      57-73/126-134   35-36/69-74     129-133/271-305  295-319/524-531
#   unblocked  76-87/156-157   39-42/73-93     189/336          307/618
#
# Up to 512 KiB the sizes tie within the noise, and larger blocks lose.  At
# 128 KiB head2 at 360x640 gets blocks of 3 rows, and OpenBLAS rounds those
# narrower GEMMs differently from the full-width ones; at 256 KiB every
# shifted layer at 360x640 and 720x1280 keeps the unblocked sum's bits in
# float32.  The channel blocks and the forward's other blocks are sized from
# the same constant.
BLOCK_BYTES = 256 << 10


def _runs_shifted(w_shape, stride: int, ph: int, pw: int) -> bool:
    """Whether :func:`conv2d_forward` lowers this convolution to shifted
    GEMMs rather than im2col: a stride-1 3x3 kernel with padding 1."""
    return (w_shape[2:], stride, ph, pw) == ((3, 3), 1, 1, 1)


def _tap_offsets(wp: int) -> list[int]:
    """Start of each 3x3 tap's slice in a padded input of row width ``wp``,
    in the order of the taps' weights."""
    return [i * wp + j for i in range(3) for j in range(3)]


def thread_cap() -> int | None:
    """``JITSTREAM_THREADS`` as a positive integer, or None when it is unset
    or empty; raises ValueError, with the warning to give, for any other
    value."""
    text = os.environ.get("JITSTREAM_THREADS")
    if not text:
        return None
    try:
        cap = int(text)
    except ValueError:
        raise ValueError(f"JITSTREAM_THREADS={text!r} ignored: not an integer") from None
    if cap < 1:
        raise ValueError(f"JITSTREAM_THREADS={text!r} ignored: not a positive integer")
    return cap


def _blas_threads() -> int | None:
    """The threads each GEMM runs on, asked of the OpenBLAS that numpy's
    core extension links; None for another BLAS."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath   # numpy 2, 1
    core = ctypes.CDLL(umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        getter = getattr(core, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def _process_width() -> int:
    """Threads a layer may split its work across: the CPUs this process may
    run on over the threads each GEMM already uses, capped by
    ``JITSTREAM_THREADS``; 1 where the BLAS thread count cannot be read."""
    blas = _blas_threads()
    if blas is None:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)       # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    width = max(1, cpus // blas)
    try:
        cap = thread_cap()
    except ValueError:      # the command line has warned about it
        cap = None
    return min(width, cap or width)


def _attempt(fn, *args) -> BaseException | None:
    """``fn(*args)``; returns what it raised, for the caller to raise."""
    try:
        fn(*args)
    except BaseException as exc:
        return exc
    return None


def _serve(jobs: queue.SimpleQueue) -> None:
    """Run ``fn(*args)`` for each ``(fn, args, done)`` taken from ``jobs``
    and put what it raised (or None) on ``done``, until a None comes."""
    while (job := jobs.get()) is not None:
        fn, args, done = job
        error = _attempt(fn, *args)
        # hold nothing of a job between jobs, so that its arrays are freed
        # as soon as the caller lets go of them
        del job, fn, args
        done.put(error)
        del error


def _start_thread() -> threading.Thread:
    """A new persistent daemon thread that serves the queue ``thread.jobs``."""
    jobs = queue.SimpleQueue()
    thread = threading.Thread(target=_serve, args=(jobs,), daemon=True)
    thread.jobs = jobs
    thread.start()
    return thread


def _stop_thread(thread: threading.Thread) -> None:
    """Ends ``thread`` once its queued jobs have run, and waits for it."""
    thread.jobs.put(None)
    thread.join()


class _Workers:
    """Up to ``width - 1`` persistent daemon threads, each fed through a
    queue of its own, for the shares of :func:`run_blocks` beyond the
    caller's, and the first for a backward's weight gradients
    (:func:`deferred_weight_gradients`); only the holder of ``_busy``
    queues on them.  They start on first use, so a process that neither
    splits a pass nor trains starts none.  A round trip through the queues
    costs about 18 µs, through a ``ThreadPoolExecutor`` 42 µs (2-core Xeon,
    CPython 3.11)."""

    def __init__(self, width: int):
        self.width = width
        self._busy = threading.Lock()
        self._threads: list[threading.Thread] = []

    def run(self, share, width: int) -> None:
        """``share(k)`` for every ``k < width``, share 0 on the calling
        thread; returns once every share has finished and raises the first
        exception one of them raised.  A call made while the pool is held,
        by another thread's split or by a backward, does every share
        itself."""
        if width == 1 or not self._busy.acquire(blocking=False):
            for k in range(width):
                share(k)
            return
        try:
            while len(self._threads) < width - 1:
                self._threads.append(_start_thread())
            # a queue per call: a call cut short by an interrupt leaves its
            # late results where the next call does not read them
            done = queue.SimpleQueue()
            for k, thread in enumerate(self._threads[:width - 1], start=1):
                thread.jobs.put((share, (k,), done))
            errors = [_attempt(share, 0)] + [done.get() for _ in range(width - 1)]
        finally:
            self._busy.release()
        error = next((e for e in errors if e is not None), None)
        if error is not None:
            raise error

    def close(self) -> None:
        """Stops the threads and returns once every one has exited."""
        while self._threads:
            _stop_thread(self._threads.pop())


# created on the first pass that asks for a width, after the command line
# has checked JITSTREAM_THREADS.  A forked child starts without the
# parent's threads.
_workers: _Workers | None = None


def _forget_threads() -> None:
    global _workers
    _workers = None


os.register_at_fork(after_in_child=_forget_threads)


def _pool_width() -> int:
    """The width of :data:`_workers`, which this creates on first use."""
    global _workers
    if _workers is None:
        _workers = _Workers(_process_width())
    return _workers.width


# the jobs of the deferral open on this thread: ``done`` is the queue they
# report to (None outside one), ``count`` how many went out
_deferral = threading.local()


@contextlib.contextmanager
def deferred_weight_gradients():
    """Holds :data:`_workers` for the length of the block, so every
    :func:`run_blocks` within it runs its blocks on the calling thread, and
    every :class:`Conv2d` backward on this thread hands its weight and bias
    gradients, both ``+=`` included, to the pool's first worker as a single
    job, and computes only its input gradient itself.  The block ends once
    every job has finished; then it raises what the block raised, or else
    the first exception a job raised.

    Jobs run in the order they come, each on the same operands as inline, so
    every gradient keeps its bits.  Where the process may use one thread
    only (``_pool_width() == 1``) or another thread holds the pool, the
    jobs run inline; a block opened inside another leaves its jobs to the
    outer one.
    """
    if _pool_width() == 1 or not _workers._busy.acquire(blocking=False):
        yield
        return
    pool = _workers
    done = _deferral.done = queue.SimpleQueue()
    _deferral.count = 0
    try:
        yield
    finally:
        # a queue per block: one cut short by an interrupt leaves its late
        # results where the next block does not read them
        count, _deferral.done = _deferral.count, None
        try:
            errors = [done.get() for _ in range(count)]
        finally:
            pool._busy.release()
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error


def _run_or_defer(job) -> None:
    """``job()`` now, or on the pool's first worker inside
    :func:`deferred_weight_gradients`, which starts it on first use."""
    done = getattr(_deferral, "done", None)
    if done is None:
        job()
        return
    if not _workers._threads:
        _workers._threads.append(_start_thread())
    _workers._threads[0].jobs.put((job, (), done))
    _deferral.count += 1


def block_count(n: int, nbytes: int) -> int:
    """Blocks a pass over ``n`` items (output columns, channels or rows)
    measuring ``nbytes`` in all is cut into: as few near-equal ones as hold
    about :data:`BLOCK_BYTES` each, at most one per item."""
    return max(1, min(n, -(-nbytes // BLOCK_BYTES)))


def _channel_blocks(x: np.ndarray) -> int:
    """Blocks a per-channel pass over ``(C, H, W)`` ``x`` is cut into: as
    many as each get at least two channels and :data:`BLOCK_BYTES` of ``x``,
    at least one.  A block of one channel would break the bits of a
    channels-last ``x``: numpy sums one channel pairwise along a row, and
    several in memory order."""
    return max(1, min(len(x) // 2, x.nbytes // BLOCK_BYTES))


def run_blocks(n: int, count: int, block) -> None:
    """``block(lo, hi)`` for ``count`` near-equal contiguous ranges of ``n``
    items.  Two or more blocks are dealt round-robin to the threads of
    :data:`_workers`, the caller's first, where the process may use more
    than one and the pool is not held; otherwise all run on the calling
    thread."""
    if count == 1:
        block(0, n)
        return
    width = min(_pool_width(), count)

    def _share(k):
        for i in range(k, count, width):
            block(n * i // count, n * (i + 1) // count)
    _workers.run(_share, width)


def _matmul_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in blocks of ``b``'s columns (:func:`block_count`), sized
    by the smaller of ``b`` and the result: a GEMM with a short inner
    dimension has too little work to share (``enc1``'s 8-channel 1x1
    shortcut at 360x640, 115 KiB of columns for a 900 KiB result, took 0.38
    ms in one call and 0.50 ms in four blocks on a 2-core Xeon with one
    OpenBLAS thread).  Each block is one GEMM that BLAS writes straight
    into its columns of the result; it rounds them as the single GEMM does
    at the tested shapes (see the module docstring)."""
    n = b.shape[1]
    dtype = np.result_type(a, b)
    count = block_count(n, min(a.shape[0], b.shape[0]) * n * dtype.itemsize)
    if count == 1:
        return a @ b
    y = np.empty((a.shape[0], n), dtype=dtype)

    def _columns(lo, hi):
        np.matmul(a, b[:, lo:hi], out=y[:, lo:hi])
    run_blocks(n, count, _columns)
    return y


def _empty_result(*operands, dtype=None) -> np.ndarray:
    """An uninitialised array with the extent, dtype (unless given) and
    memory layout numpy gives the result of an elementwise operation on
    ``operands``."""
    return np.nditer([*operands, None], op_dtypes=[None] * len(operands) + [dtype]).operands[-1]


def _block_rows(channels: int, h: int, w: int, itemsize: int) -> int:
    """Rows per block of a tap sum with ``channels`` output channels over
    ``h`` rows of width ``w+2``: as many as fit :data:`BLOCK_BYTES`,
    at least one."""
    return min(h, max(1, BLOCK_BYTES // (channels * (w + 2) * itemsize)))


def _sum_taps(xp: np.ndarray, taps, offsets, h: int, w: int) -> np.ndarray:
    """``y[:, p] = sum_k taps[k] @ xp[:, offsets[k] + p]`` over the ``h``
    rows of width ``w+2`` that start at column 0 of the flat ``xp``, added in
    tap order; returns ``(Cout, h, w)`` with the two junk columns of each row
    dropped.

    The output is walked in blocks of whole rows whose accumulator holds at
    most :data:`BLOCK_BYTES` (:func:`_block_rows`), so the eight adds
    stay in cache, and each block's valid columns are copied straight into
    the output.  Every element gets the same nine products added in the same
    order as in one pass over all rows, so the result has that pass's bits
    wherever BLAS rounds a column of a narrower GEMM as it does in the
    full-width one.  :func:`run_blocks` gets these blocks, the last with the
    ragged rows after it, each run in an accumulator of its own.
    """
    cout = taps[0].shape[0]
    wp = w + 2
    dtype = np.result_type(taps[0], xp)
    rows = _block_rows(cout, h, w, dtype.itemsize)
    count = h // rows
    y = np.empty((cout, h, w), dtype=dtype)

    def _tap_rows(lo, hi):
        acc = np.empty(cout * rows * wp, dtype=dtype)
        part = np.empty_like(acc)
        for r0 in range(lo * rows, h if hi == count else hi * rows, rows):
            r1 = min(h, r0 + rows)
            n = (r1 - r0) * wp
            block = acc[:cout * n].reshape(cout, n)
            scratch = part[:cout * n].reshape(cout, n)
            start = r0 * wp + offsets[0]
            np.matmul(taps[0], xp[:, start:start + n], out=block)
            for tap, off in zip(taps[1:], offsets[1:]):
                start = r0 * wp + off
                np.matmul(tap, xp[:, start:start + n], out=scratch)
                block += scratch
            y[:, r0:r1] = block.reshape(cout, r1 - r0, wp)[:, :, :w]
    run_blocks(count, count, _tap_rows)
    return y


def _pad_flat(x: np.ndarray, xp: np.ndarray | None = None) -> np.ndarray:
    """``x`` copied into the interior of a zero ``(C, (H+2)*(W+2) + 2)``
    buffer; ``xp`` is refilled when it has this shape and dtype, so it must
    come from an earlier call with an input of the same extent."""
    c, h, wd = x.shape
    wp = wd + 2
    shape = (c, (h + 2) * wp + 2)
    if xp is None or xp.shape != shape or xp.dtype != x.dtype:
        xp = np.zeros(shape, dtype=x.dtype)
    xp[:, :(h + 2) * wp].reshape(c, h + 2, wp)[:, 1:h + 1, 1:wd + 1] = x
    return xp


def _weight_taps(w: np.ndarray) -> np.ndarray:
    """``(Cout, Cin, 3, 3)`` weights as nine ``(Cout, Cin)`` taps in the
    order of :func:`_tap_offsets`."""
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(9, *w.shape[:2])


def shifted_conv3x3_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                            xp: np.ndarray | None = None):
    """Stride-1 3x3 convolution with padding 1 as nine GEMMs on one padded
    input, without a column matrix.

    ``x`` is copied once into the interior of a zero buffer ``xp`` of shape
    ``(C, (H+2)*(W+2) + 2)``: rows of width ``W+2`` with a zero border, and
    two spare zeros that keep the last tap's slice in range.  Tap ``(i, j)``
    reads the contiguous column range starting at ``i*(W+2) + j``, whose
    column ``r*(W+2) + q`` is input sample ``(r+i-1, q+j-1)``; the output
    is summed over the padded width by :func:`_sum_taps`, which drops the
    two junk columns per row.  ``xp`` is refilled when it has this shape and
    dtype, so it must come from an earlier call with an input of the same
    extent.  Returns ``(y, xp)``; :func:`shifted_conv3x3_backward` takes
    ``xp``.
    """
    _, h, wd = x.shape
    xp = _pad_flat(x, xp)
    y = _sum_taps(xp, _weight_taps(w), _tap_offsets(wd + 2), h, wd)
    if b is not None:
        y += b[:, None, None]
    return y, xp


def _shifted_gradients(dy: np.ndarray, w: np.ndarray, xp: np.ndarray):
    """The input and weight gradients of :func:`shifted_conv3x3_forward`
    as two functions of no arguments, which share only their inputs, so
    either may run first or on another thread.

    ``dy`` is padded once like the input, here.  Its columns from ``W+3``
    on are ``dy`` in the forward's output layout with zero junk columns, so
    ``dW[:, :, i, j]`` is one GEMM of them with the tap's slice of ``xp``,
    and the forward's junk columns contribute nothing; the nine run in tap
    order.  ``dx`` is the correlation of the padded ``dy`` with the flipped,
    transposed kernel: :func:`_sum_taps` with each tap's transpose at the
    mirrored offset ``2*(W+3) - off``, in tap order.
    """
    _, h, wd = dy.shape
    wp = wd + 2
    n = h * wp
    dyp = _pad_flat(dy)
    offsets = _tap_offsets(wp)

    def _input_gradient():
        mirrored = [2 * (wp + 1) - off for off in offsets]
        return _sum_taps(dyp, _weight_taps(w).transpose(0, 2, 1), mirrored, h, wd)

    def _weight_gradient():
        inner = dyp[:, wp + 1:wp + 1 + n]
        dtaps = np.empty((9, *w.shape[:2]), dtype=w.dtype)
        for dtap, off in zip(dtaps, offsets):
            np.matmul(inner, xp[:, off:off + n].T, out=dtap)
        return np.ascontiguousarray(dtaps.reshape(3, 3, *w.shape[:2]).transpose(2, 3, 0, 1))
    return _input_gradient, _weight_gradient


def shifted_conv3x3_backward(dy: np.ndarray, w: np.ndarray, xp: np.ndarray):
    """Gradients of :func:`shifted_conv3x3_forward` w.r.t. input, weights and
    bias (:func:`_shifted_gradients`)."""
    input_gradient, weight_gradient = _shifted_gradients(dy, w, xp)
    return input_gradient(), weight_gradient(), dy.sum(axis=(1, 2))


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                   stride: int = 1, pad: int | tuple[int, int] = 0,
                   buf: np.ndarray | None = None):
    """Cross-correlation of a ``(C,H,W)`` frame with ``(Cout,Cin,kh,kw)`` weights.

    The kernel picks the lowering: a stride-1 3x3 kernel with padding 1
    runs :func:`shifted_conv3x3_forward` at every extent and dtype;
    everything else runs im2col and one GEMM.  An unpadded 1x1 kernel skips
    im2col and runs its GEMM on the strided input, which is the matrix
    im2col would build; a large GEMM runs by blocks of output columns
    (:func:`_matmul_columns`).  ``buf`` is the lowering's buffer (the
    padded input or the columns) from an earlier call with the same kernel,
    stride and padding and an input of the same extent, refilled when it
    has the input's dtype.
    Returns ``(y, cache)``; pass the cache to :func:`conv2d_backward`.  The
    cache's second entry is that buffer, or a view of ``x``.
    """
    cout, cin, kh, kw = w.shape
    if x.shape[0] != cin:
        raise ShapeError(f"conv2d: input has {x.shape[0]} channels, weights expect {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"conv2d: bias extent {b.shape} != out_channels ({cout},)")
    ph, pw = _pair(pad)
    if _runs_shifted(w.shape, stride, ph, pw):
        y, buf = shifted_conv3x3_forward(x, w, b, buf)
        return y, (x.shape, buf, stride, ph, pw, x.shape[1:])
    if (kh, kw, ph, pw) == (1, 1, 0, 0):
        # C order, as im2col writes it: BLAS then sees the same operand
        ho, wo = _conv_out_hw(*x.shape[1:], 1, 1, stride, 0, 0)
        cols = np.ascontiguousarray(x[:, ::stride, ::stride]).reshape(cin, ho * wo)
    else:
        cols, (ho, wo) = im2col(x, kh, kw, stride, ph, pw, buf)
    y = _matmul_columns(w.reshape(cout, -1), cols).reshape(cout, ho, wo)
    if b is not None:
        y += b[:, None, None]
    return y, (x.shape, cols, stride, ph, pw, (ho, wo))


def _conv2d_gradients(dy: np.ndarray, w: np.ndarray, cache):
    """The input and weight gradients of :func:`conv2d_forward` as two
    functions of no arguments, by the lowering the forward ran:
    :func:`_shifted_gradients` on the padded input, or one GEMM on the
    columns for ``dW`` and one GEMM plus :func:`col2im` for ``dx``."""
    x_shape, cols, stride, ph, pw, (ho, wo) = cache
    cout, cin, kh, kw = w.shape
    if dy.shape != (cout, ho, wo):
        raise ShapeError(f"conv2d backward: upstream gradient {dy.shape} != output ({cout},{ho},{wo})")
    if _runs_shifted(w.shape, stride, ph, pw):
        return _shifted_gradients(dy, w, cols)
    dy_mat = dy.reshape(cout, -1)

    def _input_gradient():
        dcols = w.reshape(cout, -1).T @ dy_mat
        return col2im(dcols, x_shape, kh, kw, stride, ph, pw, (ho, wo))

    def _weight_gradient():
        return (dy_mat @ cols.T).reshape(w.shape)
    return _input_gradient, _weight_gradient


def conv2d_backward(dy: np.ndarray, w: np.ndarray, cache):
    """Gradients of :func:`conv2d_forward` w.r.t. input, weights and bias
    (:func:`_conv2d_gradients`)."""
    input_gradient, weight_gradient = _conv2d_gradients(dy, w, cache)
    return input_gradient(), weight_gradient(), dy.sum(axis=(1, 2))


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """Normalize each channel by its own spatial statistics on this frame.

    Runs in blocks of channels (:func:`_channel_blocks`), each writing its
    channels of results allocated in the dtypes and memory layouts that the
    whole-array expressions give, so the blocks keep the bits of one."""
    c, h, w = x.shape
    if h * w == 0:
        raise ShapeError("batchnorm: zero spatial extent")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta extent must be ({c},), "
                         f"got {gamma.shape}/{beta.shape}")
    if eps <= 0:
        raise ValueError("batchnorm: eps must be > 0")
    # one pass for the statistics, with the sums and divisions numpy's
    # x.mean and x.var make (their divisor is an intp), so the bits match
    n = np.intp(h * w)
    inv_std = np.empty((c, 1, 1), np.result_type(x, eps))
    xhat = _empty_result(x, inv_std, dtype=x.dtype)         # the layout of x - mean
    y = _empty_result(xhat, gamma[:, None, None])

    def _normalize(lo, hi):
        xs, xh, v, ys = x[lo:hi], xhat[lo:hi], inv_std[lo:hi], y[lo:hi]
        mean = np.add.reduce(xs, axis=(1, 2), keepdims=True)
        mean /= n
        np.subtract(xs, mean, out=xh)
        var = np.add.reduce(xh * xh, axis=(1, 2), keepdims=True)
        var /= n
        np.divide(1.0, np.sqrt(var + eps), out=v)
        xh *= v
        np.multiply(xh, gamma[lo:hi, None, None], out=ys)
        ys += beta[lo:hi, None, None]
    run_blocks(c, _channel_blocks(x), _normalize)
    return y, (xhat, inv_std, gamma)


def batchnorm_backward(dy: np.ndarray, cache):
    """Gradient flow through the per-frame statistics, in blocks of
    channels as the forward runs."""
    xhat, inv_std, gamma = cache
    n = xhat.shape[1] * xhat.shape[2]
    dgamma = np.empty(len(gamma), np.result_type(dy, xhat))
    dbeta = np.empty(len(gamma), dy.dtype)
    dxhat = _empty_result(dy, gamma[:, None, None])
    dx = _empty_result(dxhat, xhat, inv_std)

    def _normalize_backward(lo, hi):
        d, xh, dxh = dy[lo:hi], xhat[lo:hi], dxhat[lo:hi]
        np.add.reduce(d * xh, axis=(1, 2), out=dgamma[lo:hi])
        np.add.reduce(d, axis=(1, 2), out=dbeta[lo:hi])
        np.multiply(d, gamma[lo:hi, None, None], out=dxh)
        s1 = np.add.reduce(dxh, axis=(1, 2), keepdims=True)
        s2 = np.add.reduce(dxh * xh, axis=(1, 2), keepdims=True)
        dxh -= s1 / n
        np.multiply(inv_std[lo:hi], dxh - xh * s2 / n, out=dx[lo:hi])
    run_blocks(len(gamma), _channel_blocks(dy), _normalize_backward)
    return dx, dgamma, dbeta


def resize_weights(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic interpolation matrix for one axis.

    Half-pixel-center coordinate mapping with edge clamping; each output
    sample mixes at most two input cells.
    """
    m = np.zeros((n_out, n_in), dtype=dtype)
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    f = (src - i0).astype(dtype)
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1 - f)
    np.add.at(m, (rows, i1), f)
    return m


_RESIZE_FORWARD = "oh,chw,pw->cop"
_RESIZE_BACKWARD = "oh,cop,pw->chw"


@functools.lru_cache(maxsize=64)
def _resize_plan(x_shape: tuple[int, int, int], out_hw: tuple[int, int], dtype):
    """Read-only interpolation matrices of one resize and the contraction
    paths ``einsum(optimize=True)`` picks for its forward and backward.

    Passing the path back to ``einsum`` runs the same contractions as
    planning again, so the result keeps its values and its memory layout
    (which may be a transposed view, and later reductions depend on it).
    """
    c, h, w = x_shape
    mh = resize_weights(h, out_hw[0], dtype)
    mw = resize_weights(w, out_hw[1], dtype)
    mh.flags.writeable = mw.flags.writeable = False
    # planning reads only extents, so zero-stride stand-ins do
    x = np.broadcast_to(np.zeros((), dtype), x_shape)
    dy = np.broadcast_to(np.zeros((), dtype), (c, *out_hw))
    forward = np.einsum_path(_RESIZE_FORWARD, mh, x, mw, optimize=True)[0]
    backward = np.einsum_path(_RESIZE_BACKWARD, mh, dy, mw, optimize=True)[0]
    return mh, mw, forward, backward


@functools.lru_cache(maxsize=64)
def _resize_axes(x_shape: tuple[int, int, int], out_hw: tuple[int, int], dtype):
    """The axes of a resize's forward result from outermost to innermost in
    memory, read off the planned ``einsum`` on zeros of the real extent:
    ``einsum`` orders its intermediates by their extents, so a channel chunk
    may come out laid out otherwise than the whole."""
    mh, mw, forward, _ = _resize_plan(x_shape, out_hw, dtype)
    y = np.einsum(_RESIZE_FORWARD, mh, np.zeros(x_shape, dtype), mw, optimize=forward)
    return tuple(sorted(range(3), key=lambda axis: -y.strides[axis]))


def bilinear_resize_forward(x: np.ndarray, out_hw: tuple[int, int]):
    """Bilinear resample to an explicit target extent (a factor ``r`` maps to
    ``(H*r, W*r)``).

    A large ``x`` is resampled by chunks of channels (:func:`block_count`
    of its bytes), one planned ``einsum`` per chunk, each copied into one
    result laid out as the unchunked ``einsum``'s (:func:`_resize_axes`):
    an ``out=`` view would take the GEMMs off BLAS."""
    c, h, w = x.shape
    ho, wo = out_hw
    if ho < 1 or wo < 1:
        raise ShapeError(f"bilinear_resize: target extent {ho}x{wo} invalid")
    if (ho, wo) == (h, w):
        return x, (x.shape, None)
    plan = _resize_plan(x.shape, (ho, wo), x.dtype)
    mh, mw, forward, _ = plan
    count = block_count(c, x.nbytes)
    if count == 1:
        return np.einsum(_RESIZE_FORWARD, mh, x, mw, optimize=forward), (x.shape, plan)
    axes = _resize_axes(x.shape, (ho, wo), x.dtype)
    shape = (c, ho, wo)
    y = np.empty([shape[a] for a in axes], dtype=x.dtype).transpose(np.argsort(axes))

    def _channels(lo, hi):
        y[lo:hi] = np.einsum(_RESIZE_FORWARD, mh, x[lo:hi], mw, optimize=forward)
    run_blocks(c, count, _channels)
    return y, (x.shape, plan)


def bilinear_resize_backward(dy: np.ndarray, cache):
    """Scatter output gradients to the contributing input cells."""
    _, plan = cache
    if plan is None:
        return dy
    mh, mw, _, backward = plan
    return np.einsum(_RESIZE_BACKWARD, mh, dy, mw, optimize=backward)


def label_map(logits: np.ndarray) -> np.ndarray:
    """``logits.argmax(axis=0).astype(np.uint8)`` for finite ``(C, H, W)``
    logits, in one pass per class: a strict ``>`` lets the first maximum
    win, as in argmax, and ``putmask`` with a running maximum beats argmax's
    reduction over the class axis (4x360x640 7.4 -> 4.4 ms, 11x96x96 0.38
    -> 0.29 ms).  It runs in blocks of rows whose running maximum holds
    about :data:`BLOCK_BYTES` (:func:`block_count`); every step is
    elementwise, so the blocks keep the bits.  The label map is
    C-contiguous, as argmax's is."""
    c, h, w = logits.shape
    labels = np.zeros((h, w), dtype=np.uint8)

    def _rows(lo, hi):
        best = logits[0, lo:hi].copy()
        better = np.empty_like(best, dtype=bool)
        rows = labels[lo:hi]
        for k in range(1, c):
            np.greater(logits[k, lo:hi], best, out=better)
            np.putmask(rows, better, k % 256)       # astype(np.uint8) wraps
            np.maximum(best, logits[k, lo:hi], out=best)
    run_blocks(h, block_count(h, h * w * logits.itemsize), _rows)
    return labels


def _he_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Conv2d:
    """Convolution with "same" padding (pad = kernel // 2)."""

    def __init__(self, in_channels: int, out_channels: int, kernel=3, stride: int = 1,
                 bias: bool = True, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("conv2d: channel counts must be >= 1")
        if stride < 1:
            raise ValueError("conv2d: stride must be >= 1")
        kh, kw = _pair(kernel)
        self.stride = stride
        self.pad = (kh // 2, kw // 2)
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kh * kw
        self.w = ParamState.of(_he_init(rng, (out_channels, in_channels, kh, kw), fan_in, dtype))
        self.b = ParamState.of(np.zeros(out_channels, dtype=dtype)) if bias else None
        self._cache = None

    def params(self):
        out = [("weight", self.w)]
        if self.b is not None:
            out.append(("bias", self.b))
        return out

    def forward(self, x):
        # a buffer's zero border is laid out for one input extent
        buf = None
        if self._cache is not None and self._cache[0] == x.shape:
            buf = self._cache[1]
        y, self._cache = conv2d_forward(x, self.w.value,
                                        None if self.b is None else self.b.value,
                                        self.stride, self.pad, buf)
        return y

    def backward(self, dy):
        """Accumulates the weight and bias gradients, on the pool's first
        worker inside :func:`deferred_weight_gradients`, and returns ``dx``."""
        if self._cache is None:
            raise RuntimeError("conv2d backward requires the saved forward input")
        input_gradient, weight_gradient = _conv2d_gradients(dy, self.w.value, self._cache)
        # a pending job holds only what its sums read: dy only with a bias
        sums = [(self.w.gradient, weight_gradient)]
        if self.b is not None:
            sums.append((self.b.gradient, functools.partial(dy.sum, axis=(1, 2))))

        def _accumulate():
            for gradient, compute in sums:
                gradient += compute()
        _run_or_defer(_accumulate)
        return input_gradient()


class SeparableConv:
    """A 1x3 convolution followed by a 3x1 convolution (both "same"-padded)."""

    def __init__(self, in_channels: int, out_channels: int, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.conv_1x3 = Conv2d(in_channels, out_channels, (1, 3), 1, bias, rng, dtype)
        self.conv_3x1 = Conv2d(out_channels, out_channels, (3, 1), 1, bias, rng, dtype)

    def params(self):
        return ([("1x3." + n, p) for n, p in self.conv_1x3.params()]
                + [("3x1." + n, p) for n, p in self.conv_3x1.params()])

    def forward(self, x):
        return self.conv_3x1.forward(self.conv_1x3.forward(x))

    def backward(self, dy):
        return self.conv_1x3.backward(self.conv_3x1.backward(dy))


class BatchNorm:
    """Per-frame spatial batch normalization (batch size is always 1 here, so
    no running statistics are kept)."""

    def __init__(self, channels: int, eps: float = 1e-5, dtype=np.float32):
        self.eps = eps
        self.gamma = ParamState.of(np.ones(channels, dtype=dtype))
        self.beta = ParamState.of(np.zeros(channels, dtype=dtype))
        self._cache = None

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def forward(self, x):
        y, self._cache = batchnorm_forward(x, self.gamma.value, self.beta.value, self.eps)
        return y

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("batchnorm backward requires a saved forward")
        dx, dgamma, dbeta = batchnorm_backward(dy, self._cache)
        self.gamma.gradient += dgamma
        self.beta.gradient += dbeta
        return dx


class ReLU:
    """``max(x, 0)`` as ``x * (x > 0)``, which keeps NaN and gives -0.0 for a
    negative input.  ``forward`` works in place and returns ``x``: every
    caller hands it a fresh array that nothing else holds.  The forward
    runs in blocks of channels (:func:`_channel_blocks`); the backward is
    one product, which blocks run in turn on one thread do not beat."""

    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x):
        self._mask = mask = np.empty_like(x, dtype=bool)

        def _rectify(lo, hi):
            xs, ms = x[lo:hi], mask[lo:hi]
            np.greater(xs, 0, out=ms)
            np.multiply(xs, ms, out=xs)
        run_blocks(len(x), _channel_blocks(x), _rectify)
        return x

    def backward(self, dy):
        return dy * self._mask


class BilinearResize:
    """Resize by an integer factor, or to an explicit target passed at call time."""

    def __init__(self, factor: int = 1):
        if factor < 1:
            raise ValueError("bilinear_resize: factor must be >= 1")
        self.factor = factor
        self._cache = None

    def params(self):
        return []

    def forward(self, x, out_hw: tuple[int, int] | None = None):
        if out_hw is None:
            out_hw = (x.shape[1] * self.factor, x.shape[2] * self.factor)
        y, self._cache = bilinear_resize_forward(x, out_hw)
        return y

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("bilinear_resize backward requires a saved forward")
        return bilinear_resize_backward(dy, self._cache)


class Concat:
    """Channel-axis concatenation of two feature maps with equal extents."""

    def __init__(self):
        self._split = None

    def forward(self, a, b):
        if a.shape[1:] != b.shape[1:]:
            raise ShapeError(f"concat: spatial extents differ, {a.shape[1:]} vs {b.shape[1:]}")
        self._split = a.shape[0]
        return np.concatenate([a, b], axis=0)

    def backward(self, dy):
        return dy[:self._split], dy[self._split:]
