(* Recording must never serialize concurrent domains: the old design
   sharded counters across a fixed array of atomics indexed by domain id
   mod 16, which still cost an atomic RMW per record and false-shared
   adjacent cells.  Instead, every instrument hands each recording
   domain its own private cell, reached through a domain-local memo
   (id -> cell) so the hot path is: one enabled check, one DLS read, one
   int-keyed hash lookup, one plain in-place add.  No mutex, no atomic,
   no sharing.

   Cells are written only by their owning domain.  Cross-domain reads
   (merge-on-read) are non-atomic but untorn (OCaml immediates), and
   exact whenever the writer has parked or been joined — which is when
   dumps happen.  The instrument keeps every cell it ever handed out on
   a mutex-guarded list; the mutex is touched once per (domain,
   instrument) pair at first record, never again. *)

type 'cell kind = {
  memo : (int, 'cell) Hashtbl.t Domain.DLS.key;  (* instrument id -> this domain's cell *)
  fresh : unit -> 'cell;
  sentinel : 'cell;
}

(* Entries for instruments dropped by a registry reset linger
   harmlessly: ids are never reused, so they can no longer be
   reached. *)
let kind fresh =
  { memo = Domain.DLS.new_key (fun () -> Hashtbl.create 16); fresh; sentinel = fresh () }

type 'cell t = {
  kind : 'cell kind;
  id : int;
  lock : Mutex.t;
  mutable cells : 'cell list;  (* one per domain that ever recorded *)
}

let next_id = Atomic.make 0

let create kind =
  { kind; id = Atomic.fetch_and_add next_id 1; lock = Mutex.create (); cells = [] }

let cell t =
  let memo = Domain.DLS.get t.kind.memo in
  match Hashtbl.find_opt memo t.id with
  | Some c -> c
  | None ->
    let c = t.kind.fresh () in
    Mutex.protect t.lock (fun () -> t.cells <- c :: t.cells);
    Hashtbl.add memo t.id c;
    c

let cells t = Mutex.protect t.lock (fun () -> t.cells)

(* The cached handle skips the DLS read and hash lookup: the resolved
   cell is held inline and re-resolved only when the recording domain
   changes.  An unresolved handle points at its kind's shared,
   unregistered sentinel, which is never written — owner -1 forces a
   real resolve before the first record — so a handle costs four words,
   not a cell. *)
type 'cell local = { sh : 'cell t; mutable owner : int; mutable cached : 'cell }

(* [Domain.self]'s primitive, declared [noalloc]: it only reads the
   domain id from the runtime state, so the steady-state check needs no
   full C-call transition. *)
external domain_id : unit -> int = "caml_ml_domain_id" [@@noalloc]

let local sh = { sh; owner = -1; cached = sh.kind.sentinel }

let[@inline] resolve l =
  let me = domain_id () in
  if l.owner <> me then begin
    l.cached <- cell l.sh;
    l.owner <- me
  end;
  l.cached
