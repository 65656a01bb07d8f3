"""Boolean functions on GF(2^n) as dense truth tables.

A function is a uint8 vector of length 2^n; entry v is f applied to the
field element with integer value v.  ANF variable X_j corresponds to bit
j-1 of the table index.

The Walsh transform uses the field pairing throughout:

    W_f(a) = sum_x (-1)^(f(x) + Tr^n_1(a x))

Since Tr(a x) = parity(perm[a] & x) for a linear reindexing perm, W_f(a)
= S(perm[a]), where S is the plain fast Hadamard transform of (-1)^f.
Spectra are given, computed and checked only in that Hadamard index:
Parseval's relation, even parity, the class and the round trip fwht(S) =
2^n (-1)^f do not depend on the index.  Only field-indexed values, duals
and the points named in failure messages are reindexed, through
`_field_order`, when they are asked for: a `WalshSpectrum` keeps S alone,
as a copy, or, when bent, as its amplitude and its packed sign bits.

Every spectrum goes through one driver, `_spectrum_blocks`, and in it
through one gather, butterfly and round trip: the signs of a column are
tab[word], a small int32 table gathered through a per-point word, in
chunks, into one buffer that both butterflies then run on in place.
`VectorialFunction.profile()` gives the driver its coordinate word and a
+-1 `sign_table` per block of selector masks.  `walsh()` gives it one
column, the word and table of `_fold`, which folds the top k =
min(FOLD_LEVELS, max(0, n - FOLD_FROM)) butterfly levels into the
gather, by H_(2^n) = H_(2^k) (x) H_(2^(n-k)): the word packs the 2^k
bits f(p 2^(n-k) + x) of each x, and column q of the table, sums of 2^k
signs, gives part q of S, the 2^(n-k) Hadamard indices from q 2^(n-k)
on.  At n <= FOLD_FROM, k = 0: the word is the truth table, the table
[[1], [-1]], and the one part is S.  The driver reads the number of
parts from its inputs, 2^n / len(word), and runs each block a part at a
time in one buffer of a part (`transform_signs`).

Each column is sent by the S(0) of its parts, read as the word's value
counts times the table.  Nearly every spectrum of a vectorial bent
function is bent, and at even n a column whose every part has S(0) =
+-2^(n/2) goes to an int16 block, decided bent part by part
(`_narrow_bent`): the part's spectra modulo 2^16 are given the one
bent-level verdict, `_bent_columns`, which counts the entries equal to
2^(n/2) and to -2^(n/2).  The bent-level columns are read, their signs
packed into their part's bits (`_pack_part`), and the block is shifted
in place to candidate signs eps = +-1 and transformed again; fwht(eps) =
2^(n/2-k) tab[word] modulo 2^16 for every part makes 2^(n/2) eps the
exact spectrum of a column for n <= 28 (`check_round_trip` proves it),
so that Parseval (2^n squares of 2^n sum to 2^(2n)), parity (2^(n/2) is
even), the class Bent(2^(n/2)) and the round trip all hold for it, and
no int32 array of it is made.  That certificate sums over the parts, so
a column is taken from int16 only once every part passes.  Every other
column, and one with a part that fails there, takes the int32 path,
which alone classifies columns that are not bent and raises: each part
is transformed and copied into one int32 S of the block, unless it is S,
`check_parseval_parity` checks S whole, `classify` classifies each
column, and the round trip, exact only once Parseval holds
(`check_round_trip`), names the whole column's witness.  A bent S found
there is packed to its sign bits when it is kept.

The Hadamard and Möbius butterflies do two levels per pass, in place on
the caller's array, which they return; a caller that needs its input
afterwards transforms a copy.  The Hadamard one splits H_(2^n) =
H_(2^hi) (x) H_(2^lo) wherever that runs faster, and adds at most a
scratch buffer of half the array.  A whole array of up to TILE_BYTES
(512 KB) runs its passes in place, unless its rows are narrow: one or
two int16 or int32 columns (or four int16 ones), from half a tile on,
which the passes would walk a few entries at a time.  Those run the
low bits on transposed quarters and the high bits in place, on a view
whose rows are longer than ROW_BYTES: a (2^18,) int16 part of `walsh()`
took 1.21 against 1.62 ms on a 2-vCPU Xeon.  Above TILE_BYTES, a
C-contiguous array runs both halves a cache-sized tile of at most
TILE_BYTES at a time, in a buffer of 1.5 tiles: 2^17 entries in int32,
2^18 in int16; its high bits run in place whenever that buffer holds
half the array.  A truth table's ANF is computed bit-sliced, 64 points to
a uint64 word (`_anf_words`), and the degree is read from those words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NotBentError, PreconditionError, VerificationError
from .gf2n import FieldSpec, _walsh_permutation


# entries per operand of the buffers numpy's ufuncs use on strided quarters;
# at numpy's default of 8192 they alone add 3/8 of an int32 column at n = 16
PASS_BUFSIZE = 1024
# bytes above which fwht works a tile at a time, and the most a tile holds,
# whatever the dtype: 2^17 int32 or 2^18 int16 entries, which with their
# pass scratch take 768 KB, within a 2 MB L2 cache.  Half as many tiles as
# at 256 KB cost less Python overhead (one int32 n = 20 column: 14-15 ms,
# against 17-18 ms; one int16 one: 6.0 ms, against 6.8-9.4 ms in 2^17-entry
# tiles, on a 2-vCPU Xeon).  classify, the verdict and the packing read a
# spectrum in slices of an int32 tile's entries
TILE_BYTES = 1 << 19
# bytes of the shortest row worth a butterfly pass of its own: profile()
# blocks are at most this wide, and fwht runs the high bits of an array of
# narrower rows on a view whose rows are longer than this
ROW_BYTES = 64
# `_spectrum_blocks` transforms its columns in blocks of at most ROW_BYTES a
# row and BLOCK_BYTES in all while two int32 columns fit one fwht tile
# (n <= 16), and of one column above, in either dtype: int32, 16 columns at
# n <= 15 and 8 at n = 16; int16, twice as many, 32 and 16.  Wide blocks
# give the low butterfly passes long runs, and fwht splits a one- or
# two-column array of up to one tile so that its passes run on long rows
# too.  int16 fwht per column, medians of alternated calls on a 2-vCPU Xeon,
# for 1, 2 and 8 columns: 0.68, 0.49 and 0.61 ms at n = 17 (split, split,
# tiled); 1.21, 1.10 and 0.97 ms at n = 18 (split, tiled, tiled).
# Every block runs in one int32 buffer of the widest int32 block, which an
# int16 block fills with twice the columns: at most 2 MB for n <= 16, and
# 4 MB at n = 20, beside its sign table and one gather chunk.
BLOCK_BYTES = 1 << 21
# rows gathered at a time: np.take copies its indices as intp, 128 KB a chunk
# (a whole n = 20 column traced 8 MB); the round trip's chunk holds entries
GATHER_ENTRIES = 1 << 14
# walsh() above n = FOLD_FROM folds its top min(FOLD_LEVELS, n - FOLD_FROM)
# butterfly levels into its sign table: its parts keep at least 2^FOLD_FROM
# entries, long enough for the tiled butterfly, and its table at most 256 rows
FOLD_FROM = 18
FOLD_LEVELS = 3
# LOW[s]: the bit positions below 64 with bit s clear, for Möbius level s
# inside a word (`_anf_words`) and the bit-block swaps of `propp._shifted`;
# this and WEIGHT are plain ints, so importing builds no array
LOW = (
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
)
# WEIGHT[k]: the bit positions below 64 whose popcount is k
WEIGHT = (
    0x0000000000000001,
    0x0000000100010116,
    0x0001011601161668,
    0x0116166816686880,
    0x1668688068808000,
    0x6880800080000000,
    0x8000000000000000,
)


def _quarters(a, h):
    """The four interleaved runs of one two-level butterfly pass.

    Row r of axis 0 lies in quarter (r // h) % 4; the quarters are stacked
    on axis 0 and returned with the order to iterate them in.  When a run
    of h rows holds fewer than 8 entries, numpy would call its inner loop
    once per run, so the block axis is moved innermost and iterated in C
    order instead (3x faster for the h = 4 pass of one column).
    """
    q = a.reshape(-1, 4, h, *a.shape[1:]).swapaxes(0, 1)
    if 1 < h * (a.size // a.shape[0]) < 8:
        return np.moveaxis(q, 1, -1), "C"
    return q, "K"


def fwht(a):
    """Fast Walsh-Hadamard butterfly along axis 0, exact integers, in place.

    Each column of a (2^n, ...) int16, int32 or int64 array is transformed
    independently in O(n 2^n), overwriting the array, which is returned.
    Integer arrays wrap on overflow, so int32 is exact only while every
    partial sum stays within it.  The engine's sign columns hold entries
    of at most 2^k over 2^(n-k) points (k = 0 for a whole column), so
    their partial sums are bounded by 2^n, and int32 is exact for n <= 24.
    The inverse of a wrong spectrum has no such bound and may wrap:
    `check_round_trip` says why its verdict is still exact.  int16 gives
    the transform modulo 2^16 only, which the int16 path of
    `transform_signs` certifies by its own round trip.
    Any other input is refused with TypeError before anything is written;
    a caller that needs its input afterwards transforms a copy.

    The levels are split as H_(2^n) = H_(2^hi) (x) H_(2^lo), and `_tiled`
    transforms the lo low index bits, then the hi high ones (`_split`
    picks the split).  Integer butterflies agree bit for bit in any order
    of levels, int16 modulo 2^16 included, so every path gives the same
    array:
    - Arrays of at most TILE_BYTES whose rows are narrow, 2, 4 or 8 bytes
      of int16 or int32 entries, from half a tile on: lo is the least
      that makes the rows of the (2^hi, 2^lo cols) view longer than
      ROW_BYTES.  The low bits run on transposed copies of a quarter of
      the array, the high bits in place on that view, all in a scratch
      buffer of half the array.  In place, the first two passes would
      run on stretches of one to four rows.
    - Larger C-contiguous ones are cache-tiled with lo = n // 2: both
      halves run a tile of T entries at a time in a scratch buffer of
      1.5 T, where T is at most TILE_BYTES / itemsize entries (2^17 in
      int32, 2^18 in int16) and a third of the array.  When 1.5 T is
      half the array, as for (2^16, 3) int32 or (2^16, 12) int16, the
      high bits run in place, as in the case above.
    - Any other array goes through `_passes` whole, with a scratch buffer
      of half the array.
    The scratch and ufunc buffers of PASS_BUFSIZE entries are all the
    memory it takes.
    """
    if not (isinstance(a, np.ndarray) and a.dtype in (np.int16, np.int32, np.int64)):
        dtype = getattr(a, "dtype", type(a).__name__)
        raise TypeError(f"fwht transforms int16, int32 or int64 arrays in place, not {dtype}")
    with np.errstate():  # scopes setbufsize to this call
        np.setbufsize(PASS_BUFSIZE)
        split = _split(a)
        if split is None:
            _passes(a, np.empty_like(a[: a.shape[0] // 2]))
        else:
            _tiled(a, *split)
    return a


def _split(a):
    """(lo, scratch buffer) of `_tiled` for the array `a` of `fwht`, or
    None when `_passes` transforms it whole.

    `_tiled` reshapes `a` into views, which needs C order.  Below half a
    tile, the transposed copies cost more than the short stretches
    (arrays of 2^15 int16 or int32 entries took 1.1-1.4x as long split),
    and rows of other sizes gained nothing or lost: 3 int16 columns, whose
    rows no unsigned integer moves whole, 4 int32 ones and int64 ones.
    """
    size = a.shape[0]
    row = a.nbytes // size
    if not a.flags.c_contiguous or a.nbytes < TILE_BYTES // 2:
        return None
    if a.nbytes <= TILE_BYTES:
        if a.itemsize > 4 or row not in (2, 4, 8):
            return None
        lo = (ROW_BYTES // row).bit_length()
        # a quarter of the rows must hold whole transforms of the low bits
        return (lo, np.empty(a.size // 2, a.dtype)) if 4 << lo <= size else None
    lo = (size.bit_length() - 1) // 2
    # a tile holds whole transforms of the high bits, which at n <= 24
    # only a tile below 2^12 entries can prevent
    tile = min(TILE_BYTES // a.itemsize, a.size // 3)
    if size >> lo > tile:
        return None
    # a power of two, so that the tiles split the array evenly
    tile = 1 << (tile.bit_length() - 1)
    return lo, np.empty(3 * tile // 2, a.dtype)


def _passes(a, tmp):
    """The butterfly along axis 0 of `a`, in place; tmp is a[: len(a) // 2]
    in shape.

    Each pass does two levels (radix 4): the quarters a, b, c, d of
    `_quarters` become (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d) and
    (a-b)-(c-d), through tmp.  Odd n ends with one radix-2 level.
    """
    size = a.shape[0]
    h = 1
    while 4 * h <= size:
        (q0, q1, q2, q3), order = _quarters(a, h)
        s, d = tmp.reshape(2, -1, h, *a.shape[1:])
        if order == "C":
            s, d = np.moveaxis(s, 0, -1), np.moveaxis(d, 0, -1)
        np.add(q0, q1, out=s, order=order)
        np.subtract(q0, q1, out=d, order=order)
        np.add(q2, q3, out=q0, order=order)
        np.subtract(q2, q3, out=q1, order=order)
        np.subtract(s, q0, out=q2, order=order)
        np.add(s, q0, out=q0, order=order)
        np.subtract(d, q1, out=q3, order=order)
        np.add(d, q1, out=q1, order=order)
        h *= 4
    if h < size:
        low, high = a[:h], a[h:]
        np.copyto(tmp, low)
        low += high
        np.subtract(tmp, high, out=high)


def _tiled(a, lo, buf):
    """The butterfly of `fwht` on `a` in place, in strips that fit `buf`.

    Viewed as (2^hi, 2^lo, cols), the low bits are transformed along axis
    1, then the high bits along axis 0 of the (2^hi, 2^lo cols) view.  A
    strip is up to `tile` entries of whole transforms, the largest power
    of two that fits `buf` with its pass scratch, 1.5 tile: a transposed
    copy into `buf` puts the transform axis outermost, so that `_passes`
    walks long contiguous runs, and a transposed copy puts it back.
    Whenever `buf` holds half the array, the high bits' strip is the whole
    view, contiguous already: it is transformed in place, with `buf` as
    its pass scratch, and not copied.
    """
    size = a.shape[0]
    tile = 1 << ((2 * len(buf) // 3).bit_length() - 1)
    for outer, length in ((size >> lo, 1 << lo), (1, size >> lo)):
        if length == 1:  # no level, and no pass scratch to shape
            continue
        view = a.reshape(outer, length, -1)
        if outer == 1 and 2 * len(buf) >= a.size:
            _passes(view[0], buf[: a.size // 2].reshape(length // 2, -1))
            continue
        inner = view.shape[2]
        per = tile // length  # entries of the other two axes in one tile
        rc = min(inner, per)
        ra = per // rc
        for i in range(0, outer, ra):
            for j in range(0, inner, rc):
                src = view[i : i + ra, :, j : j + rc].transpose(1, 0, 2)
                k = src.size
                part = buf[:k].reshape(src.shape)
                np.copyto(_rows(part), _rows(src))
                scratch = buf[k : k + k // 2].reshape(length // 2, -1)
                _passes(part.reshape(length, -1), scratch)
                np.copyto(_rows(src), _rows(part))


def _rows(x):
    """`x` with its last axis as one unsigned entry when that axis holds
    more than one entry in 2, 4 or 8 contiguous bytes, so that a
    transposed copy moves whole rows: 5x faster for a quarter of a
    (2^17, 2) int16 array, 0.03 against 0.15 ms on a 2-vCPU Xeon."""
    run = x.shape[-1] * x.itemsize
    return x.view(f"u{run}") if x.shape[-1] > 1 and run in (2, 4, 8) else x


def _where(names, j):
    return "" if names is None else f"component {names[j]}: "


def _field_order(spectra, field):
    """Hadamard-indexed arrays along axis 0 reindexed by field element."""
    return spectra[_walsh_permutation(field)]


def check_parseval_parity(values, field, names=None):
    """Parseval's relation and even parity for spectra along axis 0.

    Each column of `values` is one spectrum of a function on `field`, in
    its Hadamard index.  A failure raises VerificationError naming a field
    point and its value, prefixed by the column's entry of `names` when
    given.
    """
    n = field.n
    cols = values.reshape(values.shape[0], -1)
    # float64 cannot wrap: with nonnegative terms and monotone rounding the sum
    # is exact below 2^53 and, once there, never drops back to 2^(2n) <= 2^48
    sums = np.einsum("ij,ij->j", cols, cols, dtype=np.float64)
    bad = np.flatnonzero(sums != 1 << (2 * n))
    if bad.size:
        j = int(bad[0])
        col = _field_order(cols[:, j], field)
        a = int(np.argmax(np.abs(col)))
        exact = sum(int(w) ** 2 for w in col)
        raise VerificationError(
            f"{_where(names, j)}Parseval check failed: sum of W(a)^2 is "
            f"{exact}, expected 2^{2 * n}; largest |W(a)| is "
            f"W({a}) = {int(col[a])}"
        )
    # one reduction, where `cols & 1` would allocate a whole copy
    if np.bitwise_or.reduce(cols, axis=None) & 1:
        cols = _field_order(cols, field)
        a, j = (int(i) for i in np.argwhere(cols & 1)[0])
        raise VerificationError(
            f"{_where(names, j)}spectrum parity check failed: "
            f"W({a}) = {int(cols[a, j])} is odd"
        )


def sign_table(values, masks):
    """int32 (len(values), len(masks)) table of (-1)^parity(value & mask)."""
    parity = np.bitwise_count(values[:, None] & masks[None, :]) & 1
    return 1 - 2 * parity.astype(np.int32)


def _spectrum_blocks(field, word, table, keep, names=None):
    """The spectra of the columns tab[word], one per entry of `keep`,
    checked exactly: (columns, classes, kept) for each block, once its
    checks have passed.  The one spectrum driver: `walsh()` gives it one
    column, `VectorialFunction.profile()` every component it computes.

    `table(index)` is the int32 table of the columns at positions `index`,
    a row per value of `word`, and `word` a row of it for each point.  A
    word of 2^(n-k) entries makes each column 2^k parts, its 2^k
    consecutive columns of the table: part q of S, the 2^(n-k) Hadamard
    indices from q 2^(n-k) on, is the transform of its table column
    through the word (`_fold`).  columns are positions in `keep` and
    `names`, which labels them in failure messages; classes holds the
    class of each, and kept, by position, what `keep` asks of each
    column, in a read-only array of its own.  keep[c] is None, to keep
    nothing, "bent", to keep the packed signs (`_pack_signs`) of a bent
    column, as the duals of `VectorialFunction._read_duals` are kept, or
    True, to keep those, or else the column's int32 S, as the spectrum of
    `walsh()` is: a one-part S is the buffer, copied for it alone.  A call
    of one column, `walsh()`'s or a `profile()` of one component, runs it
    as a 1-D array, and every other call its blocks as (2^(n-k), cols)
    arrays.

    At even n, a column whose every part has S(0) = +-2^(n/2), as
    bentness needs, goes to an int16 block, and every other one to an
    int32 block.  S(0) of each part is read as the word's value counts
    times the table: sending every even-n column to int16 instead made
    `profile()` of a gold (16, 4+2) function 33.1-33.7 ms against
    27.9-28.5 ms on a 2-vCPU Xeon.  Blocks hold `_block_columns` columns,
    run in the order of their first column, and all run in one int32
    buffer of a part of the widest int32 block, viewed as int16 for an
    int16 block (`transform_signs`).  The columns an int16 block leaves
    undecided are transformed again right after it, in int32 blocks of
    int32 width, so each column is handed back once.
    """
    n, size, length = field.n, field.size, len(word)
    parts = size // length
    wide = _block_columns(n, 4)
    level = np.zeros(len(keep), dtype=bool)
    if n % 2 == 0:
        # np.bincount copies its input as intp: a 2^20-point uint32 word
        # whole traced 8 MB, and 0.13 MB GATHER_ENTRIES points at a time
        rows, step = int(word.max()) + 1, GATHER_ENTRIES
        counts = sum(np.bincount(word[i : i + step], minlength=rows) for i in range(0, length, step))
        s0 = np.concatenate([counts @ table(c)[:rows] for c in _chunks(list(range(len(keep))), wide)])
        level = np.all(np.abs(s0.reshape(len(keep), parts)) == 1 << (n // 2), axis=1)
    blocks = [(c, np.int16) for c in _chunks(np.flatnonzero(level).tolist(), _block_columns(n, 2))]
    blocks += [(c, np.int32) for c in _chunks(np.flatnonzero(~level).tolist(), wide)]
    blocks.sort(key=lambda block: block[0][0])
    spectra = np.empty(length * min(wide, len(keep)), dtype=np.int32)

    def transform(index, dtype):
        classes, kept = {}, {}

        def read(values, bent, columns=None, q=0):
            for j in range(len(index)) if columns is None else columns:
                column = values[:, j] if values.ndim > 1 else values
                classes[j] = bent or classify(column, n)
                if keep[index[j]] and classes[j].kind == "bent":
                    if j not in kept:
                        kept[j] = np.zeros(-(-size // 8), dtype=np.uint8)
                    _pack_part(column, kept[j], q)
                elif keep[index[j]] is True:
                    # one part is the buffer, which the round trip overwrites
                    kept[j] = column.copy() if parts == 1 else column

        # a contiguous prefix, so that a last, narrower block is one too
        shape = (length,) if len(keep) == 1 else (length, len(index))
        buffer = spectra.view(dtype)[: length * len(index)].reshape(shape)
        labels = None if names is None else [names[i] for i in index]
        undecided = transform_signs(buffer, word, table(index), field, read, labels)
        done = [j for j in classes if j not in undecided]
        kept = {index[j]: kept[j] for j in done if j in kept}
        for array in kept.values():
            array.flags.writeable = False
        return ([index[j] for j in done], [classes[j] for j in done], kept), undecided

    for index, dtype in blocks:
        block, undecided = transform(index, dtype)
        if block[0]:
            yield block
        for redo in _chunks([index[j] for j in undecided], wide):
            yield transform(redo, np.int32)[0]


def _block_columns(n, itemsize):
    """Columns of a `_spectrum_blocks` block of `itemsize`-byte entries at n."""
    if 8 << n > TILE_BYTES:  # two int32 columns would be tiled
        return 1
    return max(1, min(ROW_BYTES, BLOCK_BYTES >> n) // itemsize)


def _chunks(items, width):
    """Consecutive runs of `width` items, the last one shorter."""
    return [items[i : i + width] for i in range(0, len(items), width)]


def transform_signs(values, word, tab, field, read, names=None):
    """The spectra of the sign columns tab[word] of one block of
    `_spectrum_blocks`, checked exactly: the positions of the columns
    left undecided, which only an int16 block has.

    `tab` is a (words, cols 2^k) int32 table and `word` a row of it for
    every point of a part, 2^(n-k) of them; `values`, the int16 or int32
    buffer of a part, 2^(n-k) rows of cols entries, or one column as a
    1-D array, receives the signs of each part in turn and is transformed
    in place.  np.take copies its indices as intp, so the signs are
    gathered GATHER_ENTRIES rows at a time, unchecked ("clip"): every word
    is a row.

    An int16 block is decided bent part by part (`_narrow_bent`), and a
    column only once every part passes: `read(part, bent, columns, q)`
    reads part q of the columns at positions `columns`, with `bent` their
    class Bent(2^(n/2)).  After the first part that leaves no column
    passing, the rest are not tried.  An int32 block transforms each part
    and copies it into one int32 S of the block, unless the part is S;
    `check_parseval_parity` checks S whole, and `read(S, None)` reads it,
    for every column to be classified.  Each part's round trip compares it
    with 2^(n-k) times its table column, right after its transform, or,
    for S itself, once S is read, as it overwrites the buffer; it is exact
    because Parseval was decided first (`check_round_trip`), so no sign
    array is kept.  Failures raise in their whole-column order, Parseval,
    parity, round trip, the last with the whole column's witness
    (`_unfolded_round_trip`).  `names` labels the columns in failure
    messages.
    """
    n, length = field.n, len(word)
    parts = field.size // length
    part_tabs = [np.ascontiguousarray(tab[:, q::parts]) for q in range(parts)]
    if values.dtype == np.int16:
        decided = True
        for q, column in enumerate(part_tabs):
            decided &= _narrow_bent(values, word, column, n, lambda *args: read(*args, q=q))
            if not np.any(decided):
                break
        return np.flatnonzero(~np.broadcast_to(decided, (tab.shape[1] // parts,))).tolist()
    full = values if parts == 1 else np.empty((field.size, *values.shape[1:]), dtype=np.int32)
    errors = {}
    for q, column in enumerate(part_tabs):
        _gather(values.reshape(length, -1), word, column)
        # W(a) = S[perm[a]]: only witnesses and duals need field points
        fwht(values)
        if parts > 1:
            full[q * length : (q + 1) * length] = values
            if _round_trip_errors(values, word, column) is not None:
                errors[q] = values.copy()
    check_parseval_parity(full, field, names)
    read(full, None)
    if parts == 1:
        check_round_trip(values, word, tab, names)
    if errors:
        j, x, got, sign = _unfolded_round_trip(errors, word, tab, field.size)
        raise VerificationError(_round_trip_message(names, j, x, got, sign, field.size))
    return []


def _narrow_bent(narrow, word, tab, n, read):
    """Decide the columns of one part of an int16 block of
    `transform_signs` bent: which ones it decided, a bool per column, or
    False for none.

    The columns s = tab[word] are signs +-1, as `sign_table` gives them,
    or, for part q of a column folded into 2^k parts (`_fold`), sums of
    2^k signs, whose S(0) = sum_x s(x) is +-2^(n/2) at even n
    (`_spectrum_blocks`), and `narrow` is their int16 buffer.  The columns
    are gathered into it and transformed modulo 2^16.  The columns whose
    every entry is then +-2^(n/2) (`_bent_columns`) are given to `read`
    with the class Bent(2^(n/2)), needing only the class and the signs;
    the block is shifted in place to eps = +-1 and transformed again, and
    fwht(eps) must be 2^(n/2) len(word) / 2^n tab[word] modulo 2^16:
    2^(n/2) tab[word] for whole columns, 2^(n/2-k) t_q for part q.  That
    makes 2^(n/2) eps the exact spectrum of such a column for n <= 28,
    right or wrong as the first transform was (`check_round_trip`), so
    Parseval, parity, the class and the round trip all hold for it; for a
    part, only once every part of its column passes.  A column that fails
    either test is left undecided, with `narrow` overwritten, as every
    column is at odd n, where nothing is bent.
    """
    _gather(narrow.reshape(len(narrow), -1), word, tab.astype(np.int16))
    fwht(narrow)  # modulo 2^16
    bent = _bent_columns(narrow, n)
    if not bent.any():
        return False
    amp = 1 << (n // 2)
    read(narrow, Classification("bent", amp, (amp,)), np.flatnonzero(bent))
    narrow >>= n // 2  # +-amp to the candidate signs +-1
    if _round_trip_errors(narrow, word, tab, amp * len(word) >> n) is None:
        return bent
    return bent & (_column_counts(narrow, 0) == len(narrow))


def _gather(rows, word, tab):
    """rows = tab[word], GATHER_ENTRIES rows at a time."""
    for i in range(0, len(rows), GATHER_ENTRIES):
        chunk = slice(i, i + GATHER_ENTRIES)
        np.take(tab, word[chunk], axis=0, out=rows[chunk], mode="clip")


def _pack_part(values, bits, q):
    """Pack the marks of part q of a folded S, the len(values) entries of
    `values`, into its bits of `bits`, where np.packbits puts them.

    A part of a multiple of 8 points has whole bytes of its own.  A
    shorter one, a power of two, shares a byte with its neighbours, and S
    then has at most 32 points: its bits are set in the unpacked marks of
    the whole buffer, which is packed again, so no neighbour's bit or the
    zero padding changes.
    """
    length = len(values)
    if length % 8 == 0:
        _pack_signs(values, bits[q * length // 8 : (q + 1) * length // 8])
    else:
        marks = np.unpackbits(bits)
        marks[q * length : (q + 1) * length] = values < 0
        bits[:] = np.packbits(marks)


def _unfolded_round_trip(errors, word, tab, size):
    """A block's round-trip witness from its parts' errors: (column, point,
    inverse there, sign).

    errors[q] is fwht(part q) - 2^(n-k) tab[word, q] for each column, for
    the parts where it is not zero.  With H[p, q] = (-1)^popcount(p & q),
    the inverse of S at point p 2^(n-k) + x is sum_q H[p, q] fwht(part
    q)[x], and tab = signs H with H H = 2^k I, so that inverse is 2^n sign
    + sum_q H[p, q] errors[q][x].  H is invertible, so that sum is not
    zero at some point exactly when a part's error is not.  The least such
    point is returned, with the first column failing there.
    """
    parts = size // len(word)
    H = sign_table(np.arange(parts), np.arange(parts))
    for p in range(parts):
        off = sum(int(H[p, q]) * e.astype(np.int64) for q, e in errors.items()).reshape(len(word), -1)
        bad = np.flatnonzero(off)
        if bad.size:
            x, j = divmod(int(bad[0]), off.shape[1])
            sign = int(tab[word[x], j * parts : (j + 1) * parts] @ H[p]) // parts  # H is symmetric
            return j, p * len(word) + x, size * sign + int(off[x, j]), sign
    raise AssertionError("a part's round-trip error vanished in the whole column")


def _round_trip_message(names, j, x, got, sign, size):
    shown = f"{got // size}" if got % size == 0 else f"{got}/2^{size.bit_length() - 1}"
    return (
        f"{_where(names, j)}Walsh round-trip failed at x = {x}: "
        f"inverse gives {shown}, table sign is {sign}"
    )


def check_round_trip(values, word, tab, names=None):
    """The inverse butterfly must give back the sign columns tab[word].

    `values` are the int32 or int64 spectra of the columns tab[word] in
    the Hadamard index, as in `transform_signs`, so that fwht(values) =
    2^n tab[word].  The table's entries are any integers: +-1 for a whole
    spectrum, sums of signs for the parts of a folded one.  The inverse is
    taken of `values` in place, which it overwrites, and compared
    unscaled, so an entry off by less than 2^n fails too.  A failure names
    the least point x and the first column failing there.

    The check is exact only for spectra whose Parseval sum is 2^(2n), so
    Parseval must be checked first, by `check_parseval_parity`, as every
    int32 caller in the engine does.  The inverse
    runs in the spectra's dtype and wraps: in int32, a spectrum S' of a
    column s passes when fwht(S') = 2^n s + 2^32 w for an integer vector
    w, that is, when S' = S + 2^(32-n) H w, with S = H s the true spectrum
    and H the Hadamard matrix (H H = 2^n I).  Then

        |S'|^2 = |S|^2 + 2^33 <s, w> + 2^(64-n) |w|^2,

    and Parseval, |S'|^2 = |S|^2 = 2^(2n), needs <s, w> = -2^(31-n)
    |w|^2.  As |<s, w>| <= sum |w_x| <= |w|^2 for +-1 signs, that holds
    for n <= 30 only at w = 0, where S' = S.  Alone, the check would
    accept S' = S + 2^(32-n) chi_a at n >= 16, chi_a a character.  For a
    spectrum folded into 2^k parts (`transform_signs`), part q is
    checked against 2^(n-k) t_q, with t_q = tab[word, q] and |t_q| <= 2^k,
    so a pass needs P'_q = P_q + 2^(32-n+k) H w_q; Parseval over the whole
    S' then needs sum_q <t_q, w_q> = -2^(31-n+k) sum_q |w_q|^2, while
    |sum_q <t_q, w_q>| <= 2^k sum_q |w_q|^2, so again every w_q = 0 for
    n <= 30.  int64 spectra wrap at 2^64, which the same sums rule out.

    The int16 round trip of `_narrow_bent` needs no Parseval, and no
    right forward transform: it inverts candidate signs eps = +-1, whose
    |H eps|^2 = 2^n |eps|^2 = 2^(2n) holds by construction.  A pass
    modulo 2^M means H eps = 2^(n/2) s + 2^M w for an integer vector w,
    and then

        2^(2n) = |H eps|^2 = 2^(2n) + 2^(M+1+n/2) <s, w> + 2^(2M) |w|^2

    needs <s, w> = -2^(M-1-n/2) |w|^2, which |<s, w>| <= |w|^2 allows
    only at w = 0 once M >= n/2 + 2.  So at M = 16 for n <= 28, H eps =
    2^(n/2) s, and 2^(n/2) eps = H s is the true spectrum: bent, with
    Parseval, parity and the round trip.

    `transform_signs` tries the 2^k parts of a folded column so in int16:
    part q, of 2^(n-k) entries, passes when H eps_q =
    2^(n/2-k) t_q + 2^16 w_q, t_q = tab[word, q].  No part's own sum
    decides it, but their total does: sum_q |H eps_q|^2 = 2^(n-k) 2^n =
    2^(2n-k), and so is sum_q |2^(n/2-k) t_q|^2, because sum_q |t_q|^2 =
    2^(n+k) (each x gives the 2^k entries of H_(2^k) times 2^k signs).
    So a pass of every part needs

        sum_q <t_q, w_q> = -2^(15-n/2+k) sum_q |w_q|^2,

    while |sum_q <t_q, w_q>| <= 2^k sum_q |w_q|^2 as |t_q| <= 2^k: only
    w = 0 allows both for n <= 28, and then 2^(n/2) eps is the true S.
    A pass of some parts alone proves nothing, so a column is taken from
    int16 only once every part passes.
    """
    size = values.shape[0]
    first = _round_trip_errors(values, word, tab)
    if first is not None:
        x, j = first
        sign = int(tab[word[x], j])
        got = int(values.reshape(size, -1)[x, j]) + size * sign
        raise VerificationError(_round_trip_message(names, j, x, got, sign, size))


def _round_trip_errors(values, word, tab, scale=None):
    """Overwrite `values` with fwht(values) - scale tab[word]; the first
    (x, j) where that is not zero, or None.  `scale` is 2^n by default.

    Sound only once Parseval holds for the whole spectrum, part or not:
    the differences are taken modulo 2^32 in int32, as `check_round_trip`
    states and proves; the int16 candidate signs of `_narrow_bent`, with
    scale 2^(n/2), or 2^(n/2-k) for a part, are proved there too.  The
    table is scaled once, in the spectra's dtype; its entries stay within
    2^n, and so within int32 at n <= 24, parts included, whose entries of
    at most 2^k are scaled by 2^(n-k), and within 2^(n/2) <= 2^12, and so
    within int16, at the int16 scales.
    Its rows are then gathered again a chunk of at most GATHER_ENTRIES
    entries at a time, the only memory the check takes beside the
    butterfly's scratch: a caller that still needs the spectra passes a
    copy.  A chunk's intp indices and rows take at most half the array,
    the untiled butterfly's scratch, so that the butterfly sets the peak
    at any n; above TILE_BYTES, its 1.5 tiles of at least 2^15 entries
    hold a whole chunk already.
    """
    size = values.shape[0]
    scaled = tab.astype(values.dtype) * (size if scale is None else scale)
    row_bytes = np.dtype(np.intp).itemsize + scaled.shape[1] * scaled.itemsize
    step = max(1, min(GATHER_ENTRIES // scaled.shape[1], values.nbytes // 2 // row_bytes))
    off = fwht(values).reshape(size, -1)
    # one buffer for every chunk's rows, or each np.take would allocate
    # its chunk while the last one is still referenced
    chunk = np.empty((min(step, size), scaled.shape[1]), dtype=scaled.dtype)
    first = None
    for i in range(0, size, step):
        part = off[i : i + step]
        part -= np.take(scaled, word[i : i + step], axis=0, out=chunk[: len(part)], mode="clip")
        if first is None and np.count_nonzero(part):
            x, j = (int(k) for k in np.argwhere(part)[0])
            first = (i + x, j)
    return first


@dataclass(frozen=True)
class Classification:
    """Spectrum class: bent, semi-bent, plateaued(s), or mixed.

    Precedence: bent first (all |W| = 2^(n/2), n even), then a single
    amplitude 2^s (named semi-bent when s = n/2 + 1 with n even), else
    mixed carrying the exact absolute-value set.
    """

    kind: str  # "bent" | "semi-bent" | "plateaued" | "mixed"
    amplitude: int | None
    abs_values: tuple[int, ...]

    @property
    def plateaued_family(self):
        return self.kind != "mixed"

    def __str__(self):
        name = {"bent": "Bent", "semi-bent": "SemiBent", "plateaued": "Plateaued"}
        if self.kind in name:
            return f"{name[self.kind]}({self.amplitude})"
        shown = ",".join(str(v) for v in self.abs_values[:8])
        if len(self.abs_values) > 8:
            shown += f",...({len(self.abs_values)} values)"
        return "Mixed{" + shown + "}"


def classify(values, n):
    """Classify a Walsh value vector per the precedence above.

    int32 values stay int32, as for checked spectra, whose |W| <= 2^n.
    |W| is read one slice of TILE_BYTES at a time, and each slice's levels
    are merged into those of the slices before it, so that no |W| copy of
    a longer column is made; a column of at most one tile is one slice,
    read in one pass.
    """
    values = np.asarray(values)
    if values.dtype != np.int32:
        values = values.astype(np.int64, copy=False)
    levels = None
    step = TILE_BYTES // values.itemsize
    for i in range(0, values.size, step):
        absv = np.abs(values[i : i + step])
        # exact shortcut for the common one-level slices; otherwise absv is
        # this call's own array, so it is sorted in place
        part = absv[:1].copy() if absv.min() == absv.max() else _distinct(absv)
        del absv  # before the next slice's |W| is made
        levels = part if levels is None else _distinct(np.concatenate((levels, part)))
    abs_set = tuple(int(v) for v in levels)
    if n % 2 == 0 and abs_set == ((1 << (n // 2)),):
        return Classification("bent", 1 << (n // 2), abs_set)
    nonzero = [v for v in abs_set if v]
    if len(nonzero) == 1 and nonzero[0] & (nonzero[0] - 1) == 0:
        amp = nonzero[0]
        s = amp.bit_length() - 1
        kind = "semi-bent" if n % 2 == 0 and s == n // 2 + 1 else "plateaued"
        return Classification(kind, amp, abs_set)
    return Classification("mixed", None, abs_set)


def _bent_columns(values, n):
    """Which columns of a block of spectra are all +-2^(n/2), a bool per
    column: the one exact bent-level verdict.

    For even n, the entries equal to amp = 2^(n/2) and to -amp are
    counted, a slice of an int32 tile's entries at a time, so that the
    bool temporaries take at most TILE_BYTES / 4.  When they make up the
    block, every column is bent, and Parseval and parity hold with it: 2^n
    squares of amp^2 = 2^n sum to 2^(2n), and amp is even for n >= 2.  At
    the first slice whose counts fall short, the block is counted again
    column by column.  Odd n has no bent spectrum.
    """
    rows = values.reshape(values.shape[0], -1)
    if n % 2:
        return np.zeros(rows.shape[1], dtype=bool)
    amp = 1 << (n // 2)
    step = max(1, TILE_BYTES // 4 // rows.shape[1])
    for i in range(0, len(rows), step):
        part = rows[i : i + step]
        if np.count_nonzero(part == amp) + np.count_nonzero(part == -amp) < part.size:
            return _column_counts(rows, amp, -amp) == len(rows)
    return np.ones(rows.shape[1], dtype=bool)


def _column_counts(values, *levels):
    """How many entries of each column of a block equal one of `levels`,
    counted a slice of an int32 tile's entries at a time, so that the bool
    temporaries take at most TILE_BYTES / 4."""
    rows = values.reshape(values.shape[0], -1)
    counts = np.zeros(rows.shape[1], dtype=np.intp)
    step = max(1, TILE_BYTES // 4 // rows.shape[1])
    for i in range(0, len(rows), step):
        part = rows[i : i + step]
        for level in levels:
            counts += np.count_nonzero(part == level, axis=0)
    return counts


def _pack_signs(values, out=None):
    """The marks of values < 0 along a 1-D array, packed as np.packbits
    packs them (point x is bit 7 - x % 8 of byte x // 8).

    Packed a slice of an int32 tile's entries at a time, so that no whole
    mark array is made; written into `out`, of -(-len(values) // 8)
    bytes, when given.
    """
    size = len(values)
    if out is None:
        out = np.empty(-(-size // 8), dtype=np.uint8)
    step = -(-TILE_BYTES // 4 // 8) * 8  # whole bytes
    for i in range(0, size, step):
        out[i // 8 : (i + step) // 8] = np.packbits(values[i : i + step] < 0)
    return out


def _unpack_signs(bits, size):
    """The uint8 marks of `_pack_signs`, one per point, for `size` points."""
    return np.unpackbits(bits, count=size)


def _bent_values(bits, amp, out):
    """out = amp (-1)^mark for the marks `bits` of `_pack_signs`, one per
    entry of the int32 array `out`, which is returned."""
    np.multiply(_unpack_signs(bits, len(out)), -2 * amp, out=out, dtype=np.int32)
    out += amp
    return out


class WalshSpectrum:
    """Full integer Walsh spectrum, plus class.

    Keeps one array, from which `_hadamard` reads S = fwht((-1)^f) in the
    Hadamard index, where W(a) = S(perm[a]).  A bent S is its amplitude
    times signs, so it is kept as its sign bits, packed by `_pack_signs`
    in ceil(2^n / 8) bytes, beside the amplitude in its class, whether
    int16 certified it or `classify` found it bent; any other S is kept
    as an int32 or int64 copy.  The checks read S before it is kept;
    `values` and `[a]` reindex only what they return.  The kept
    array is the spectrum's own and read-only, so no caller can change
    it afterwards.
    """

    __slots__ = ("field", "classification", "_kept")

    def __init__(self, field, spectrum):
        spectrum = np.asarray(spectrum)
        # int32 holds any |W| <= 2^n <= 2^24; anything else is widened to
        # int64, never narrowed, so no value is truncated before the checks,
        # which read this spectrum's own copy
        spectrum = spectrum.astype(np.int32 if spectrum.dtype == np.int32 else np.int64)
        if spectrum.shape != (field.size,):
            raise FieldError("spectrum length must be 2^n")
        check_parseval_parity(spectrum, field)
        cls = classify(spectrum, field.n)
        self._take(field, _pack_signs(spectrum) if cls.kind == "bent" else spectrum, cls)

    def _take(self, field, kept, classification):
        """Keep a checked S with its class: the packed sign bits of a bent
        S, or else an array of S that nothing else holds, kept as it is,
        not copied."""
        self.field = field
        self.classification = classification
        kept.flags.writeable = False
        self._kept = kept

    def _hadamard(self, x=None):
        """S, or its entry at the Hadamard index x (an int): the one reader
        of the kept array.

        A bent S = amplitude (-1)^bit is built only when all of it is
        asked for: one entry reads one bit.
        """
        kept = self._kept
        if not self.is_bent:
            return kept if x is None else kept[x]
        amp = self.classification.amplitude
        if x is not None:
            bit = int(kept[x >> 3]) >> (7 - (x & 7)) & 1
            return amp - 2 * amp * bit
        return _bent_values(kept, amp, np.empty(self.field.size, dtype=np.int32))

    @property
    def values(self):
        """W(a) for every field element a, as a new array."""
        return _field_order(self._hadamard(), self.field)

    @property
    def is_bent(self):
        return self.classification.kind == "bent"

    def __getitem__(self, a):
        return int(self._hadamard(int(_walsh_permutation(self.field)[self.field.check(a)])))

    def abs_counts(self):
        """The distinct |W(a)|, ascending, and how many points take each.

        A bent spectrum's class holds its one exact level, which every
        point takes; any other spectrum's |W| is sorted in place, in its
        own copy, and counted between the boundaries of its levels.
        """
        levels = self.classification.abs_values
        if len(levels) == 1:
            return np.array(levels), np.array([self.field.size])
        absv = np.abs(self._hadamard())
        absv.sort()
        starts = np.flatnonzero(absv[1:] != absv[:-1]) + 1
        starts = np.concatenate(([0], starts))
        return absv[starts], np.diff(starts, append=absv.size)


class BooleanFunction:
    """Immutable n-variable Boolean function bound to a field model."""

    __slots__ = ("field", "table", "_walsh")

    def __init__(self, field: FieldSpec, table):
        # one copy, made before the checks: the caller keeps its array
        self._own(field, np.array(table, dtype=np.uint8))

    @classmethod
    def _adopt(cls, field, table):
        """A function on `table`, a fresh uint8 array that nothing else
        holds, taken as it is rather than copied."""
        f = cls.__new__(cls)
        f._own(field, table)
        return f

    def _own(self, field, table):
        if table.shape != (field.size,):
            raise FieldError(f"truth table must have length {field.size}")
        if table.max(initial=0) > 1:
            raise FieldError("truth table entries must be bits")
        table.flags.writeable = False
        self.field = field
        self.table = table
        self._walsh = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, np.zeros(field.size, dtype=np.uint8))

    @classmethod
    def constant(cls, field, bit):
        return cls(field, np.full(field.size, bit & 1, dtype=np.uint8))

    @classmethod
    def from_univariate(cls, field, terms):
        """x -> Tr^n_1(sum of c_i x^(d_i)) from (coefficient, exponent) pairs."""
        return cls(field, field.abs_trace_table()[field.poly_elems(terms)])

    @classmethod
    def from_anf(cls, field, monomials):
        """Build from ANF monomial supports (sets of 1-based variable indices)."""
        coeffs = np.zeros(field.size, dtype=np.uint8)
        for mono in monomials:
            mask = 0
            for j in mono:
                if not 1 <= j <= field.n:
                    raise FieldError(f"variable X{j} outside X1..X{field.n}")
                mask |= 1 << (j - 1)
            coeffs[mask] ^= 1
        return cls(field, _anf_bits(coeffs))

    # -- structure ------------------------------------------------------------

    @property
    def n(self):
        return self.field.n

    def __eq__(self, other):
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.field, self.table.tobytes()))

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, weight={self.weight()})"

    def weight(self):
        return int(self.table.sum())

    def is_balanced(self):
        return 2 * self.weight() == self.field.size

    # -- pointwise algebra ------------------------------------------------------

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldError("operands live in different fields")

    def __xor__(self, other):
        self._same_field(other)
        return BooleanFunction(self.field, self.table ^ other.table)

    def __and__(self, other):
        self._same_field(other)
        return BooleanFunction(self.field, self.table & other.table)

    def complement(self):
        return BooleanFunction(self.field, self.table ^ 1)

    def shift(self, a):
        """x -> f(x + a) (field addition is XOR)."""
        idx = np.arange(self.field.size) ^ self.field.check(a)
        return BooleanFunction(self.field, self.table[idx])

    def scale_input(self, delta):
        """x -> f(delta x) for nonzero delta."""
        if self.field.check(delta) == 0:
            raise FieldError("input scaling needs a nonzero factor")
        idx = self.field.mul_elems(np.arange(self.field.size, dtype=np.int64), delta)
        return BooleanFunction(self.field, self.table[idx])

    def derivative(self, a):
        """D_a f(x) = f(x) + f(x + a)."""
        return self ^ self.shift(a)

    def second_derivative(self, a, b):
        """D_a D_b f = D_a (D_b f)."""
        return self.derivative(b).derivative(a)

    # -- spectra ---------------------------------------------------------------

    def walsh(self):
        """Walsh spectrum over the field pairing, verified exactly.

        Parseval and the inverse-transform round trip are asserted inline
        for every spectrum this package ever computes, in the Hadamard
        index.  The spectrum is one column of `_spectrum_blocks`, the one
        spectrum driver, given the word and table of `_fold`: the top k =
        min(FOLD_LEVELS, max(0, n - FOLD_FROM)) butterfly levels are
        folded into the table, and the 2^k parts of S, 2^(n-k) entries
        each, are transformed and checked in turn in one buffer of a part.
        At even n, when the S(0) of every part is +-2^(n/2), the parts are
        tried in int16 first: a column whose every part passes is bent,
        and its bits are kept without an int32 butterfly.  Any other
        column, and one with a part that fails there, goes the int32 way,
        which alone classifies and raises: the parts are copied into one
        int32 S, or at k = 0 its one part is copied once read.  The driver
        hands the spectrum back with its class, and it is kept as it is: a
        bent one as its packed sign bits, any other as that int32 S.
        """
        if self._walsh is None:
            k = min(FOLD_LEVELS, max(0, self.n - FOLD_FROM))
            word, tab = _fold(self.table, k)
            [(_, [cls], kept)] = _spectrum_blocks(self.field, word, lambda index: tab, [True])
            spectrum = WalshSpectrum.__new__(WalshSpectrum)
            spectrum._take(self.field, kept[0], cls)
            self._walsh = spectrum
        return self._walsh

    def classification(self):
        return self.walsh().classification

    def is_bent(self):
        return self.walsh().is_bent

    def dual(self):
        """The dual f* of a bent function: W_f(a) = 2^(n/2) (-1)^(f*(a))."""
        spectrum = self.walsh()
        if not spectrum.is_bent:
            a = _off_bent_point(spectrum)
            expected = "2^(n/2) with n even" if self.n % 2 else 1 << (self.n // 2)
            raise NotBentError(a, spectrum[a], expected)
        # bent: the kept bits are the marks of S < 0, so no S is built
        signs = _unpack_signs(spectrum._kept, self.field.size)
        return BooleanFunction(self.field, _field_order(signs, self.field))

    # -- algebraic normal form ---------------------------------------------------

    def anf_mask(self):
        """Möbius transform: uint8 vector of ANF coefficients by monomial mask."""
        return _anf_bits(self.table)

    def anf_monomials(self):
        """ANF as a set of monomial supports (frozensets of 1-based indices)."""
        masks = np.flatnonzero(self.anf_mask()).tolist()
        return frozenset(frozenset(j + 1 for j in range(self.n) if mask >> j & 1) for mask in masks)

    def degree(self):
        """Algebraic degree; 0 for the zero function by convention.

        Read from the packed ANF: bit b of word i is the coefficient of
        monomial 64 i + b, whose degree is popcount(i) + popcount(b).
        """
        words = _anf_words(self.table)
        index_weight = np.bitwise_count(np.arange(words.size, dtype=np.uint32))
        degree = 0
        for k, mask in enumerate(WEIGHT):
            hit = index_weight[(words & mask) != 0]
            if hit.size:
                degree = max(degree, k + int(hit.max()))
        return degree


def _fold(table, k):
    """The word and sign table of a truth table's top k butterfly levels.

    By H_(2^n) = H_(2^k) (x) H_(2^(n-k)), part q of S = fwht((-1)^f), the
    Hadamard indices q 2^(n-k) to (q+1) 2^(n-k) - 1, is the transform of
    the column x -> sum_p (-1)^popcount(p & q) (-1)^f(p 2^(n-k) + x).
    That column depends on x only through the uint8 word[x] = sum_p
    f(p 2^(n-k) + x) << p, as tab[word[x], q] with tab[w, q] = sum_p
    (-1)^popcount(p & q) (1 - 2 bit_p(w)), an int32 table of 2^(2^k)
    rows and 2^k columns.  At k = 0 the word is the table itself and tab
    is [[1], [-1]].
    """
    parts = 1 << k
    length = len(table) >> k
    word = table[:length].copy() if k else table
    for p in range(1, parts):
        word |= table[p * length : (p + 1) * length] << p
    signs = 1 - 2 * ((np.arange(1 << parts)[:, None] >> np.arange(parts)) & 1)
    return word, (signs @ sign_table(np.arange(parts), np.arange(parts))).astype(np.int32)


def _distinct(a):
    """Sorted distinct entries of a 1-D array, which is sorted in place.

    np.unique's plain form imports numpy.ma on first use, which costs more
    than a whole small job; a sort and a neighbour comparison do not.
    """
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _mobius(a):
    """Binary Möbius transform along axis 0 (self-inverse XOR butterfly).

    Unsigned integer input is transformed bitwise, so a word packing
    several truth tables yields their ANF coefficients packed the same way.
    The array is transformed in place and returned: a caller that needs
    its input afterwards passes a copy.  Each pass does two levels, as
    four XORs over the quarters of `_quarters`; odd n ends with one single
    level.
    """
    size = a.shape[0]
    h = 1
    with np.errstate():  # scopes setbufsize to this call
        np.setbufsize(PASS_BUFSIZE)
        while 4 * h <= size:
            (q0, q1, q2, q3), order = _quarters(a, h)
            np.bitwise_xor(q1, q0, out=q1, order=order)
            np.bitwise_xor(q3, q2, out=q3, order=order)
            np.bitwise_xor(q2, q0, out=q2, order=order)
            np.bitwise_xor(q3, q1, out=q3, order=order)
            h *= 4
    if h < size:
        a[h:] ^= a[:h]
    return a


def _anf_words(table):
    """Binary Möbius transform of a 0/1 table, bit-sliced 64 points a word.

    Bit b of little-endian uint64 word i holds point 64 i + b, on any host.
    `_mobius` runs the levels of the word index; level s < 6 inside a word
    moves the bits with bit s clear (LOW[s]) up by 2^s and XORs them in.
    For n < 6 the one word is zero-padded, and the padding stays zero: a
    moved bit b < 2^n lands on b | 2^s < 2^n.
    """
    size = table.shape[0]
    words = np.zeros(max(1, size >> 6), dtype="<u8")
    words.view(np.uint8)[: -(-size // 8)] = np.packbits(table, bitorder="little")
    _mobius(words)
    moved = np.empty_like(words)
    for s in range(min(size.bit_length() - 1, 6)):
        np.bitwise_and(words, LOW[s], out=moved)
        moved <<= 1 << s
        words ^= moved
    return words


def _anf_bits(table):
    """`_anf_words` of a 0/1 table, one uint8 coefficient per monomial mask."""
    words = _anf_words(table)
    return np.unpackbits(words.view(np.uint8), count=table.shape[0], bitorder="little")


def sigma_of(f1, f2, f3):
    """Majority-of-three combiner f1 f2 + f1 f3 + f2 f3."""
    return (f1 & f2) ^ (f1 & f3) ^ (f2 & f3)


def check_lemma_walsh_identity(f1, f2, f3):
    """W_sigma(a) = (W_f1 + W_f2 + W_f3 - W_f4)(a) / 2 with f4 = f1+f2+f3.

    Returns True; raises VerificationError naming the least failing field
    point and both sides otherwise (theorem check).
    """
    f4 = f1 ^ f2 ^ f3
    # the identity holds at every point, so in the Hadamard index too
    functions = (sigma_of(f1, f2, f3), f1, f2, f3, f4)
    s, s1, s2, s3, s4 = (g.walsh()._hadamard() for g in functions)
    # in field order, so that the witness is the least field point
    sides = _field_order(np.stack([s * 2, s1 + s2 + s3 - s4], axis=1), f1.field)
    bad = np.flatnonzero(sides[:, 0] != sides[:, 1])
    if bad.size:
        a = int(bad[0])
        raise VerificationError(
            f"four-function Walsh identity failed at a = {a}: 2 W_sigma(a) = "
            f"{sides[a, 0]}, W_f1(a) + W_f2(a) + W_f3(a) - W_f4(a) = {sides[a, 1]}"
        )
    return True


def _off_bent_point(spectrum):
    """The witness that a spectrum is not bent: the least field point a
    with |W(a)| != 2^(n/2), or 0 for odd n, where no spectrum is bent."""
    n = spectrum.field.n
    if n % 2:
        return 0
    off = np.abs(spectrum._hadamard()) != 1 << (n // 2)
    return int(np.flatnonzero(_field_order(off, spectrum.field))[0])


def bent_or_raise(f, name="input"):
    """Require bentness, re-raising with a labelled witness."""
    spectrum = f.walsh()
    if not spectrum.is_bent:
        a = _off_bent_point(spectrum)
        raise PreconditionError(
            f"{name} is not bent: class {spectrum.classification}, "
            f"W({a}) = {spectrum[a]}"
        )
    return f
