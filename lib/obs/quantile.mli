(** HDR-style histograms with bounded relative error and exact rank
    selection — the one histogram type in [Dh_obs].

    A two-level bucketing: a coarse level indexed by the sample's
    exponent and a fine level of [2^fine_bits] sub-buckets within each
    exponent, so every reported quantile is within a [1/2^fine_bits]
    (3.125%) relative error of the exact order statistic — and values
    below [2^(fine_bits+1)] are bucketed exactly.

    Named histograms live in the {!Metrics} registry
    ({!Metrics.histogram}); {!create} makes an unregistered one.
    Recording follows the {!Sharded} per-domain buffered-cell
    discipline: the first record from a domain allocates it a private
    cell, and every subsequent record is two plain in-place adds — no
    mutex, no atomic, no shared cache line.  Single-writer hot loops
    hold a {!local} cache of the resolved cell.  All recording is a
    no-op while {!Control.enabled} is false (one atomic load).

    Reads go through {!snapshot}: an immutable merged copy of every
    per-domain cell, taken under the instrument's cell-list lock.
    Snapshots merge ({!merge}), so sharded collectors — one instrument
    per domain, one per run leg — combine into a single distribution
    without re-bucketing error. *)

type t
(** A quantile histogram (sharded across recording domains). *)

val fine_bits : int
(** 5: 32 sub-buckets per exponent, relative error bound [1/32]. *)

val bucket_count : int
(** Buckets per cell; every non-negative OCaml int has a bucket. *)

val create : unit -> t
(** An unregistered instrument (tests, throwaway collectors). *)

(** {1 Recording} *)

val record : t -> int -> unit
(** Record a sample.  Raises [Invalid_argument] on negative samples
    (checked only while enabled). *)

type local
(** A caller-held cache of one domain's cell: one enabled check, one
    domain-id compare and two plain adds in the steady state.  Must not
    be recorded to by two domains concurrently.  Creating one allocates
    no cell. *)

val local : t -> local
val record_local : local -> int -> unit

(** {1 Bucketing (exposed for tests)} *)

val bucket_of : int -> int
(** Bucket index of a non-negative sample.  Monotone: [a <= b] implies
    [bucket_of a <= bucket_of b]. *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of a bucket index.  [hi - lo] is
    below [lo / 2^fine_bits + 1], which is what bounds the error. *)

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Merge every per-domain cell now.  Cells being written by a domain
    that has not parked may lag by its unmerged buffer (the {!Sharded}
    read contract). *)

val empty : snapshot

val merge : snapshot -> snapshot -> snapshot

val count : snapshot -> int  (** Samples recorded. *)

val sum : snapshot -> int

val mean : snapshot -> float  (** 0.0 when empty. *)

val quantile : snapshot -> float -> int
(** [quantile s q] for [q] in [[0, 1]] is the upper bound of the bucket
    holding the rank-[max 1 (ceil (q * count))] sample — at most 3.125%
    above the exact order statistic, never below it, and exact for
    samples below [2^(fine_bits+1)].  0 when the snapshot is empty. *)

val max_value : snapshot -> int
(** Upper bound of the highest non-empty bucket; 0 when empty. *)

val pp : Format.formatter -> snapshot -> unit
(** One line: count, mean, p50/p90/p99/p99.9, max. *)
