(** Marsaglia's multiply-with-carry pseudo-random number generator.

    This is the generator DieHard inlines into its allocator (paper §4.1,
    citing Marsaglia's 1994 sci.stat.math post).  It combines two 16-bit
    multiply-with-carry sequences into one 32-bit output and is fast enough
    to sit on the allocation fast path.

    The generator is deterministic given its seed, which is what makes
    replicated experiments reproducible: each replica gets a distinct seed
    and therefore a distinct heap layout. *)

type t
(** Mutable generator state (two 32-bit lag words). *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a single integer seed.  The seed
    is hashed into the two internal lag words; zero lag words (which would
    make a multiply-with-carry stream degenerate) are avoided. *)

val copy : t -> t
(** [copy t] is an independent generator starting from [t]'s current
    state.  Advancing one does not affect the other. *)

val assign : t -> from:t -> unit
(** [assign t ~from] overwrites [t]'s state with [from]'s — restoring a
    snapshot taken with {!copy} without disturbing aliases to [t]. *)

val reseed : t -> seed:int -> unit
(** [reseed t ~seed] resets [t] in place to the state [create ~seed]
    would produce.  In-place so every alias sees the fresh stream — the
    rewind-and-reseed recovery path depends on this. *)

val next_u32 : t -> int
(** [next_u32 t] returns the next output, a uniform integer in
    [\[0, 2{^32})]. *)

val fill_u32_le : t -> Bytes.t -> pos:int -> words:int -> unit
(** [fill_u32_le t buf ~pos ~words] writes the next [words] outputs of
    [t] into [buf] from [pos] on, four bytes each, least-significant byte
    first.  Bytes and final state equal [words] calls of {!next_u32}
    written out one by one; this is the bulk kernel behind the
    replicated-mode random heap fill.  Raises [Invalid_argument] if the
    range does not fit in [buf]. *)

val below : t -> int -> int
(** [below t n] is uniform in [\[0, n)].  Uses rejection sampling so the
    result is exactly uniform (no modulo bias).  [n] must be positive and
    at most [2{^32}]. *)

val bits : t -> int -> int
(** [bits t b] is a uniform [b]-bit integer, [0 <= b <= 30]. *)

val bool : t -> bool
(** A uniform coin flip. *)

val float01 : t -> float
(** Uniform float in [\[0, 1)], with 32 bits of precision. *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t].  Used to give each replica, size-class partition or
    workload stream its own randomness. *)

val state : t -> int * int
(** Current [(z, w)] lag words; exposed for tests and for recording the
    exact state in experiment logs. *)
