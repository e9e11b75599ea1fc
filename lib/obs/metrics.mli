(** Metrics registry: the one name-keyed table of instruments in
    [Dh_obs] — counters, gauges, {!Quantile} histograms and {!Window}
    sliding windows.

    Counters and histograms are buffered per domain on the {!Sharded}
    discipline: recording is a plain in-place add into the calling
    domain's private cell, and cells are merged only when a value is
    read ([counter_value], {!Quantile.snapshot}, {!dump}).  All
    recording is a no-op while {!Control.enabled} is false.

    Instrument {e lookup} by name takes the registry mutex — resolve
    instruments once, outside hot loops, and keep the handle.

    Instruments are get-or-create by name: creating ["heap.malloc.bytes"]
    twice returns the same histogram, so short-lived components (one heap
    per campaign trial) accumulate into one series.  Asking for a name
    under a different kind raises [Invalid_argument].  Callback gauges
    are the exception to get-or-create: re-registering a gauge's name
    replaces it, so a gauge tracks the most recently created
    component. *)

type t
(** A registry. *)

val create : unit -> t

val default : t
(** The process-wide registry; everything in the repository publishes
    here unless told otherwise. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create. Raises [Invalid_argument] if the name exists with a
    different kind. *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int  (** Sum over per-domain cells. *)

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val gauge_fn : t -> string -> (unit -> int) -> unit
(** Register a callback gauge, read at dump time, replacing any gauge of
    the same name.  Raises [Invalid_argument] if the name holds another
    kind.  A callback that raises reads as 0. *)

(** {1 Histograms and windows} *)

val histogram : t -> string -> Quantile.t
(** Get or create a {!Quantile} histogram.  Record through
    {!Quantile.record}, or a {!Quantile.local} handle in single-writer
    hot loops; read through {!Quantile.snapshot}. *)

val window : t -> string -> width:int -> buckets:int -> Window.t
(** Get or create a sliding window.  Raises [Invalid_argument] if the
    name exists with a different kind or a different geometry. *)

val find_window : t -> string -> Window.t option
(** Lookup without creating — for read-side consumers (the bench
    report, tests) that must not dictate geometry.  [None] unless the
    name holds a window. *)

(** {1 Reading} *)

type row = {
  name : string;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"]. *)
  value : int;  (** Counter sum, gauge value, or histogram sample count. *)
  p50 : int option;  (** Histograms: {!Quantile.quantile} at 0.5. *)
  p99 : int option;  (** Histograms: {!Quantile.quantile} at 0.99. *)
  detail : string;
      (** Histograms: ["sum=S mean=M"] — the sample sum and the mean to
          one decimal; empty otherwise. *)
}

val dump : t -> row list
(** Snapshot of every counter, gauge and histogram, sorted by name.
    Windows are left out: reading one needs the owner's clock. *)

val to_csv : t -> string
(** The dump as CSV with a ["name,kind,value,p50,p99,detail"] header
    (quantile cells are empty for counters and gauges) — the
    machine-readable twin of the bench report tables. *)

val write_csv : path:string -> t -> unit

val reset : t -> unit
(** Drop every instrument (tests, bench legs).  Handles to dropped
    instruments keep recording into cells no dump reaches. *)
