(** Per-domain buffered cells: the recording discipline every [Dh_obs]
    instrument shares ({!Metrics} counters, {!Quantile} histograms, the
    {!Audit} data plane).

    The first time a domain records into an instrument it is handed a
    private cell (reached through domain-local storage), and every
    subsequent record is a plain in-place write — no mutex, no atomic,
    no cache line shared with any other domain.  Cells are merged only
    when read ({!cells}); reads taken while another domain is mid-burst
    may lag by that domain's unmerged buffer, and are exact once
    writers have parked or been joined (the pool parks its workers
    between fan-outs, so post-fan-out dumps are exact). *)

type 'cell kind
(** One cell type: its per-domain memo and its shared sentinel. *)

val kind : (unit -> 'cell) -> 'cell kind
(** [kind fresh] for a constructor of zeroed cells.  Call it once per
    cell type, at module initialisation. *)

type 'cell t
(** One sharded instrument: the cells it has handed out, under a lock
    taken once per (domain, instrument) pair. *)

val create : 'cell kind -> 'cell t

val cell : 'cell t -> 'cell
(** The calling domain's cell, created and registered on first use: one
    DLS read and one int-keyed hash lookup. *)

val cells : 'cell t -> 'cell list
(** Every cell ever handed out, for merge-on-read.  Cells are never
    unregistered. *)

type 'cell local
(** A caller-held cache of one domain's cell.  Unsynchronized: must not
    be recorded to by two domains concurrently (it re-resolves correctly
    when ownership moves {e between} bursts, e.g. a heap handed from one
    domain to another).  An unresolved handle allocates no cell. *)

val local : 'cell t -> 'cell local

val resolve : 'cell local -> 'cell
(** The cached cell, re-resolved through {!cell} when the calling domain
    is not the one it was resolved for: one domain-id compare in the
    steady state. *)
