type prot = No_access | Read_only | Read_write

let page_size = 4096
let page_shift = 12
let word_size = 8

(* --- the page-state word ---

   A segment keeps one [int] per page: bits 0-1 are the protection of
   VIRTUAL page i (readable, writable), bit 2 whether PHYSICAL page i was
   ever written, and bits 3.. the checkpoint epoch in which physical page
   i was last dirtied (0 = never).  "Dirty now" means that epoch equals
   [t.epoch]; arming or rewinding a checkpoint bumps [t.epoch], cleaning
   the whole space in O(1).  In a never-meshed segment virtual page i is
   physical page i, so a store to a page already dirtied this epoch is
   the one compare [word = hot t]; a meshed segment combines its virtual
   page's protection with its physical page's touched and epoch fields. *)

let readable = 1
let writable = 2
let prot_bits = readable lor writable
let touched_bit = 4
let epoch_shift = 3
let prot_code = function No_access -> 0 | Read_only -> readable | Read_write -> prot_bits
let access_bit = function Fault.Read -> readable | Fault.Write -> writable
let dirtied w = w lsr epoch_shift

type segment = {
  base : int;
  len : int;  (* page-rounded *)
  data : Bytes.t;
  state : int array;  (* one page-state word per page *)
  phys : int array;
      (* virtual page -> physical page (an index into [data]'s pages).
         Identity until {!alias} meshes two virtual pages onto one
         backing page. *)
  refcnt : int array;
      (* physical page -> number of virtual pages it backs; 0 = retired
         by a mesh (its bytes are kept so a rewind can resurrect it). *)
  mutable meshes : int;  (* retired physical pages in this segment *)
  mutable aliased : bool;  (* false = [phys] is identity (fast paths) *)
  born_epoch : int;
      (* epoch at mmap time: a segment with [born_epoch = t.epoch] was
         mapped after the active checkpoint and is discarded wholesale on
         rewind (no pre-images are kept for it). *)
}

(* The empty segment contains no address: it is "no segment" in the
   lookup cache, in the index's spare slots and as [find]'s miss. *)
let none =
  { base = 0; len = 0; data = Bytes.empty; state = [||]; phys = [||]; refcnt = [||];
    meshes = 0; aliased = false; born_epoch = -1 }

(* Whether the [n] bytes at segment offset [off] lie inside [seg], in one
   branch. *)
let fits seg off n = off lor (seg.len - n - off) >= 0

(* Translate a segment-relative byte offset through the physical-page
   indirection.  Identity for never-meshed segments, and the [aliased]
   flag keeps that common case to one branch. *)
let phys_off seg off =
  if seg.aliased then
    (Array.unsafe_get seg.phys (off lsr page_shift) lsl page_shift)
    lor (off land (page_size - 1))
  else off

type stats = {
  reads : int;
  writes : int;
  mmaps : int;
  munmaps : int;
  tlb_misses : int;
  cache_misses : int;
  dirty_pages : int;
}

type rewind_report = {
  pages_restored : int;
  segments_remapped : int;
  segments_discarded : int;
  protections_restored : int;
}

(* A small TLB model: [tlb_entries] pages, direct-mapped.  Feeds the
   benchmark harness's cost model — random object placement (DieHard)
   touches many more pages than a compact allocator, which is exactly
   the overhead the paper attributes DieHard's slowdowns to (§4.5,
   §7.2.1: twolf "is due not to the cost of allocation but to TLB
   misses").  Direct-mapped integer arrays keep the model out of the
   simulator's own hot path: no hashing, no allocation per access. *)
let tlb_entries = 64

(* Data-cache model: [cache_lines] 64-byte lines, direct-mapped.
   Charges cold traversals (GC marking, randomly-placed objects) that a
   purely functional simulator would otherwise treat as free. *)
let cache_lines = 1024
let cache_line_shift = 6

(* --- the checkpoint/rewind layer ---

   Rewind-and-discard recovery (after the ARM Morello line of work):
   [checkpoint] arms an undo log; the write paths then save a 4 KiB
   pre-image of each page the first time it is dirtied in the current
   epoch (copy-on-write — arming itself copies nothing).  [rewind] blits
   the pre-images back, undoes mapping deltas (segments mapped since the
   checkpoint are discarded, segments unmapped since are re-inserted,
   protection changes reverted) and restores [next_base], so a resumed
   execution re-draws the very same addresses a never-faulted run would
   have — O(dirty) recovery instead of O(run) re-execution.

   The exact-fault discipline composes for free: every multi-byte
   operation validates its whole range before mutating anything or
   marking anything dirty, so a fault mid-bulk-op leaves the undo log
   describing precisely the pre-op state. *)

type ckpt = {
  mutable pre : (segment * int * Bytes.t) list;
      (* (segment, physical page, pre-image), newest first *)
  mutable pre_count : int;
  mutable born : int list;  (* bases of segments mapped since arming *)
  mutable gone : segment list;  (* segments unmapped since arming *)
  mutable prot_log : (segment * int * int) list;
      (* (segment, page, protection bits) pre-states, newest first:
         replaying the whole list in order ends on the oldest (arm-time)
         value for every page *)
  mutable mesh_log : (segment * int * int) list;
      (* (segment, virtual page, previous physical page), newest first:
         meshes performed inside the window, undone on rewind *)
  ck_next_base : int;
}

type t = {
  mutable segs : segment array;  (* live segments by base; [none] from [nsegs] *)
  mutable nsegs : int;
  mutable next_base : int;
  mutable cache : segment;  (* last never-meshed segment found, or [none] *)
  mutable reads : int;
  mutable writes : int;
  mutable mmaps : int;
  mutable munmaps : int;
  mutable touched_pages : int;
  mutable touched_unmapped : int;  (* of those, pages of unmapped segments *)
  tlb : int array;  (* direct-mapped page tags; -1 = empty *)
  mutable tlb_misses : int;
  dcache : int array;  (* direct-mapped line tags; -1 = empty *)
  mutable cache_misses : int;
  mutable ckpt : ckpt option;  (* the armed checkpoint, if any *)
  mutable epoch : int;  (* current dirty epoch, from 1 *)
  mutable dirty : int;  (* pages dirtied in the current epoch *)
  mutable preimaged : int;  (* cumulative pages pre-imaged (COW copies) *)
}

(* The word of a writable page dirtied this epoch: a store to it needs
   no bookkeeping. *)
let hot t = (t.epoch lsl epoch_shift) lor touched_bit lor prot_bits

let fold_segments f t acc =
  let acc = ref acc in
  for i = 0 to t.nsegs - 1 do
    acc := f t.segs.(i) !acc
  done;
  !acc

let mapped_bytes t =
  (* Meshed pages count once: each alias retires one physical page, so the
     resident-set proxy shrinks even though the virtual extent is fixed. *)
  fold_segments (fun seg acc -> acc + seg.len - (seg.meshes * page_size)) t 0

let meshed_pages t = fold_segments (fun seg acc -> acc + seg.meshes) t 0

(* TLB/cache accounting publishes through the metrics registry as
   callback gauges: zero cost on the access hot paths, and the dump
   always reflects the most recently created address space (campaigns
   create one per trial; the CLI creates exactly one). *)
let publish_metrics t =
  let g name f = Dh_obs.Metrics.gauge_fn Dh_obs.Metrics.default ("mem." ^ name) f in
  g "reads" (fun () -> t.reads);
  g "writes" (fun () -> t.writes);
  g "mmaps" (fun () -> t.mmaps);
  g "munmaps" (fun () -> t.munmaps);
  g "tlb_misses" (fun () -> t.tlb_misses);
  g "cache_misses" (fun () -> t.cache_misses);
  g "touched_pages" (fun () -> t.touched_pages);
  g "dirty_pages" (fun () -> t.dirty);
  g "preimaged_pages" (fun () -> t.preimaged);
  g "meshed_pages" (fun () -> meshed_pages t);
  g "mapped_bytes" (fun () -> mapped_bytes t)

let create () =
  let t =
  {
    segs = Array.make 8 none;
    nsegs = 0;
    next_base = 16 * page_size;  (* keep a NULL-guard zone at the bottom *)
    cache = none;
    reads = 0;
    writes = 0;
    mmaps = 0;
    munmaps = 0;
    touched_pages = 0;
    touched_unmapped = 0;
    tlb = Array.make tlb_entries (-1);
    tlb_misses = 0;
    dcache = Array.make cache_lines (-1);
    cache_misses = 0;
    ckpt = None;
    epoch = 1;
    dirty = 0;
    preimaged = 0;
  }
  in
  if Dh_obs.Control.enabled () then publish_metrics t;
  t

(* --- the locality model ---

   Charging rule: every access charges exactly the pages and cache lines
   its byte range spans, once each, in address order — independent of
   which code path (bytewise, word, or bulk) performs the access.
   Repeated touches of a resident page/line are free, so a bytewise loop
   and one bulk operation over the same range observe identical miss
   counts. *)

let touch_page t page =
  let slot = page land (tlb_entries - 1) in
  if Array.unsafe_get t.tlb slot <> page then begin
    Array.unsafe_set t.tlb slot page;
    t.tlb_misses <- t.tlb_misses + 1
  end

let touch_line t line =
  let slot = line land (cache_lines - 1) in
  if Array.unsafe_get t.dcache slot <> line then begin
    Array.unsafe_set t.dcache slot line;
    t.cache_misses <- t.cache_misses + 1
  end

(* Charge the TLB and cache for a one-byte access at [addr]. *)
let[@inline] charge_byte t addr =
  touch_page t (addr lsr page_shift);
  touch_line t (addr lsr cache_line_shift)

(* Charge a word at [addr]: its first byte, then the page and line of its
   last byte where they differ (a page crossing is a line crossing). *)
let[@inline] charge_word t addr =
  charge_byte t addr;
  let last = addr + word_size - 1 in
  if last lsr cache_line_shift <> addr lsr cache_line_shift then begin
    if last lsr page_shift <> addr lsr page_shift then touch_page t (last lsr page_shift);
    touch_line t (last lsr cache_line_shift)
  end

(* Charge every cache line overlapping the inclusive range [first, last]. *)
let charge_lines t ~first ~last =
  for line = first lsr cache_line_shift to last lsr cache_line_shift do
    touch_line t line
  done

(* --- the segment index ---

   The live segments in an array sorted by base, binary-searched when the
   one-entry cache misses: host memory is O(live segments) however many
   pages were ever mapped, and no lookup allocates. *)

(* The index of the last live segment whose base is <= [addr], or -1. *)
let rec search segs addr lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    if (Array.unsafe_get segs mid).base <= addr then search segs addr (mid + 1) hi
    else search segs addr lo mid

let index_of_base t base =
  let i = search t.segs base 0 t.nsegs in
  if i >= 0 && t.segs.(i).base = base then i else -1

let insert t seg =
  if t.nsegs = Array.length t.segs then
    t.segs <- Array.append t.segs (Array.make t.nsegs none);
  let i = search t.segs seg.base 0 t.nsegs + 1 in
  Array.blit t.segs i t.segs (i + 1) (t.nsegs - i);
  t.segs.(i) <- seg;
  t.nsegs <- t.nsegs + 1

let remove t i =
  Array.blit t.segs (i + 1) t.segs i (t.nsegs - i - 1);
  t.nsegs <- t.nsegs - 1;
  t.segs.(t.nsegs) <- none

(* The live segment containing [addr], or [none].  Only never-meshed
   segments are cached: the scalar fast paths index [data] untranslated. *)
let find t addr =
  let c = t.cache in
  if fits c (addr - c.base) 1 then c
  else
    let i = search t.segs addr 0 t.nsegs in
    let seg = if i < 0 then none else t.segs.(i) in
    if not (fits seg (addr - seg.base) 1) then none
    else begin
      if not seg.aliased then t.cache <- seg;
      seg
    end

let touched_in seg =
  Array.fold_left (fun n w -> if w land touched_bit <> 0 then n + 1 else n) 0 seg.state

let round_pages len = (len + page_size - 1) / page_size * page_size

let mmap t ?(prot = Read_write) len =
  if len <= 0 then invalid_arg "Mem.mmap: length must be positive";
  let len = round_pages len in
  let base = t.next_base in
  (* Leave one unmapped hole page after each segment so that runs off the
     end of a mapping fault instead of silently landing in the next one. *)
  t.next_base <- base + len + page_size;
  let pages = len / page_size in
  insert t
    {
      base;
      len;
      data = Bytes.make len '\000';
      state = Array.make pages (prot_code prot);
      phys = Array.init pages (fun p -> p);
      refcnt = Array.make pages 1;
      meshes = 0;
      aliased = false;
      born_epoch = t.epoch;
    };
  t.mmaps <- t.mmaps + 1;
  (match t.ckpt with Some c -> c.born <- base :: c.born | None -> ());
  base

let segment_of t addr =
  let seg = find t addr in
  if seg == none then None else Some (seg.base, seg.len)

let is_mapped t addr = find t addr != none

(* --- flight-recorder hook ---

   Faults are cold, so this is the one place the simulator talks to the
   observability layer on behalf of the program being simulated: when a
   fault is about to be raised (and telemetry is on), capture the
   faulting address's neighborhood into the flight recorder before the
   exception unwinds and the evidence goes stale. *)

let fault_addr_of = function
  | Fault.Unmapped { addr; _ }
  | Fault.Protection { addr; _ }
  | Fault.Unmap_unmapped { addr }
  | Fault.Protect_unmapped { fault_addr = addr; _ } -> addr

(* Hex dump of the bytes around [center], read straight from the backing
   store: no protection checks, no cost-model charging — the recorder
   must not perturb what it observes. *)
let neighborhood t center =
  let seg = find t center in
  if seg == none then
    let nearest =
      fold_segments
        (fun seg acc ->
          let d = min (abs (center - seg.base)) (abs (center - (seg.base + seg.len))) in
          match acc with Some (best, _) when best <= d -> acc | _ -> Some (d, seg))
        t None
    in
    match nearest with
    | None -> Printf.sprintf "0x%x is unmapped (no segments mapped)" center
    | Some (_, seg) ->
      Printf.sprintf "0x%x is unmapped; nearest segment [0x%x, 0x%x) (%d bytes)"
        center seg.base (seg.base + seg.len) seg.len
  else
    let lo = max seg.base (center - 64) in
    let hi = min (seg.base + seg.len) (center + 64) in
    let b = Buffer.create 512 in
    Printf.bprintf b "segment [0x%x, 0x%x); 16 bytes per row, * marks 0x%x\n"
      seg.base (seg.base + seg.len) center;
    let row = ref (lo - (lo mod 16)) in
    while !row < hi do
      Printf.bprintf b "%c 0x%08x " (if center - !row >= 0 && center - !row < 16 then '*' else ' ') !row;
      for i = 0 to 15 do
        let a = !row + i in
        if a < lo || a >= hi then Buffer.add_string b " .."
        else
          Printf.bprintf b " %02x"
            (Char.code (Bytes.get seg.data (phys_off seg (a - seg.base))))
      done;
      Buffer.add_char b '\n';
      row := !row + 16
    done;
    Buffer.contents b

(* The faulting window's dirty-page delta: which pages the current
   checkpoint window wrote, and how far each has diverged from its
   pre-image — the time-travel view of the crash site. *)
let dirty_delta t c =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "%d pages dirty since last checkpoint (%d pre-imaged, %d in newborn segments)\n"
    t.dirty c.pre_count (t.dirty - c.pre_count);
  let shown = ref 0 in
  List.iter
    (fun (seg, p, img) ->
      if !shown < 32 then begin
        incr shown;
        let off = p lsl page_shift in
        let changed = ref 0 in
        for i = 0 to page_size - 1 do
          if Bytes.get img i <> Bytes.get seg.data (off + i) then incr changed
        done;
        Printf.bprintf b "  page 0x%08x: %4d/%d bytes differ from checkpoint\n"
          (seg.base + off) !changed page_size
      end)
    c.pre;
  if c.pre_count > !shown then
    Printf.bprintf b "  ... %d more pre-imaged pages\n" (c.pre_count - !shown);
  Buffer.contents b

let raise_fault t f =
  if Dh_obs.Control.enabled () then begin
    let neighborhood_section =
      {
        Dh_obs.Recorder.title = "fault neighborhood";
        body = neighborhood t (fault_addr_of f);
      }
    in
    let sections =
      match t.ckpt with
      | Some c ->
        [
          neighborhood_section;
          { Dh_obs.Recorder.title = "dirty-page delta"; body = dirty_delta t c };
        ]
      | None -> [ neighborhood_section ]
    in
    Dh_obs.Recorder.trigger ~sections ~reason:(Fault.to_string f) ()
  end;
  Fault.raise_fault f

let munmap t base =
  let i = index_of_base t base in
  if i < 0 then raise_fault t (Fault.Unmap_unmapped { addr = base });
  let seg = t.segs.(i) in
  remove t i;
  if t.cache == seg then t.cache <- none;
  t.munmaps <- t.munmaps + 1;
  t.touched_unmapped <- t.touched_unmapped + touched_in seg;
  match t.ckpt with
  | Some c ->
    if List.mem base c.born then
      (* Born and gone entirely inside the window: rewind need not know. *)
      c.born <- List.filter (fun b -> b <> base) c.born
    else c.gone <- seg :: c.gone
  | None -> ()

let set_prot seg p code = seg.state.(p) <- seg.state.(p) land lnot prot_bits lor code

let protect t ~addr ~len prot =
  if len <= 0 then invalid_arg "Mem.protect: length must be positive";
  let seg = find t addr in
  if seg == none then raise_fault t (Fault.Protect_unmapped { addr; len; fault_addr = addr });
  if addr + len > seg.base + seg.len then
    raise_fault t (Fault.Protect_unmapped { addr; len; fault_addr = seg.base + seg.len });
  let code = prot_code prot in
  for p = (addr - seg.base) / page_size to (addr + len - 1 - seg.base) / page_size do
    let old = seg.state.(p) land prot_bits in
    (match t.ckpt with
    | Some c when seg.born_epoch <> t.epoch && old <> code ->
      c.prot_log <- (seg, p, old) :: c.prot_log
    | Some _ | None -> ());
    set_prot seg p code
  done

(* [page] is a PHYSICAL page index: both the written-page proxy and the
   checkpoint pre-images live at the physical level, so two meshed virtual
   pages cost (and pre-image) their shared backing page exactly once. *)
let mark_touched_phys t seg page =
  let w = seg.state.(page) in
  if w land touched_bit = 0 then t.touched_pages <- t.touched_pages + 1;
  if dirtied w <> t.epoch then begin
    t.dirty <- t.dirty + 1;
    match t.ckpt with
    | Some c when seg.born_epoch <> t.epoch ->
      (* First write to this page since the checkpoint: save its pre-image
         before the caller mutates it (every write path marks before it
         blits).  Segments born after the checkpoint are discarded whole
         on rewind, so their pages need no copies. *)
      c.pre <- (seg, page, Bytes.sub seg.data (page lsl page_shift) page_size) :: c.pre;
      c.pre_count <- c.pre_count + 1;
      t.preimaged <- t.preimaged + 1
    | Some _ | None -> ()
  end;
  seg.state.(page) <- (t.epoch lsl epoch_shift) lor touched_bit lor (w land prot_bits)

let mark_touched t seg vpage = mark_touched_phys t seg (Array.unsafe_get seg.phys vpage)

(* --- scalar access ---

   Fast path: the access lies in the cached segment (never meshed, so
   [data] is indexed untranslated) and its page-state word already allows
   it — for a store, the word is [hot t].  That is one containment test
   and one compare before the TLB/cache charge and the blit, and nothing
   allocates.  Everything else — another segment, a first store to a page
   this epoch, a fault, a meshed segment — takes [scalar_check]. *)

(* Charge [addr], the first byte an access touches on page [p] of [seg],
   and fault there if the page forbids the access. *)
let enter_page t seg p addr access =
  charge_byte t addr;
  if seg.state.(p) land access_bit access = 0 then
    raise_fault t (Fault.Protection { addr; access })

(* Check an [n]-byte access at [addr] (n <= page_size): charge pages and
   lines as [n] bytewise accesses would, fault at the first illegal byte,
   mark a store's pages dirty (pre-imaging them when a checkpoint is
   armed) and return the segment. *)
let scalar_check t addr n access =
  let seg = find t addr in
  if seg == none then begin
    charge_byte t addr;
    raise_fault t (Fault.Unmapped { addr; access })
  end;
  let p0 = (addr - seg.base) lsr page_shift in
  enter_page t seg p0 addr access;
  let last = addr + n - 1 in
  let seg_end = seg.base + seg.len in
  if last >= seg_end then begin
    (* Into the hole page after the segment; the bytes before it share the
       first byte's line. *)
    charge_byte t seg_end;
    raise_fault t (Fault.Unmapped { addr = seg_end; access })
  end;
  let p1 = (last - seg.base) lsr page_shift in
  if p1 <> p0 then
    (* The first byte of the second page is where a bytewise walk would
       fault; charge and check it as such. *)
    enter_page t seg p1 (seg.base + (p1 lsl page_shift)) access
  else if last lsr cache_line_shift <> addr lsr cache_line_shift then
    touch_line t (last lsr cache_line_shift);
  if access = Fault.Write then begin
    mark_touched t seg p0;
    if p1 <> p0 then mark_touched t seg p1
  end;
  seg

let read8 t addr =
  t.reads <- t.reads + 1;
  let seg = t.cache in
  let off = addr - seg.base in
  if fits seg off 1 && Array.unsafe_get seg.state (off lsr page_shift) land readable <> 0
  then begin
    charge_byte t addr;
    Char.code (Bytes.unsafe_get seg.data off)
  end
  else
    let seg = scalar_check t addr 1 Fault.Read in
    Char.code (Bytes.get seg.data (phys_off seg (addr - seg.base)))

let write8 t addr v =
  t.writes <- t.writes + 1;
  let seg = t.cache in
  let off = addr - seg.base in
  let c = Char.unsafe_chr (v land 0xFF) in
  if fits seg off 1 && Array.unsafe_get seg.state (off lsr page_shift) = hot t then begin
    charge_byte t addr;
    Bytes.unsafe_set seg.data off c
  end
  else
    let seg = scalar_check t addr 1 Fault.Write in
    Bytes.set seg.data (phys_off seg (addr - seg.base)) c

(* A word may cross a page inside its segment on the fast path: both
   pages' words are checked.  In a meshed segment the two pages may sit
   on non-adjacent physical pages, so a crossing word moves bytewise. *)
let split seg off = seg.aliased && off land (page_size - 1) > page_size - word_size

let read64 t addr =
  t.reads <- t.reads + 1;
  let seg = t.cache in
  let off = addr - seg.base and st = seg.state in
  if
    fits seg off word_size
    && Array.unsafe_get st (off lsr page_shift)
       land Array.unsafe_get st ((off + word_size - 1) lsr page_shift)
       land readable <> 0
  then begin
    charge_word t addr;
    Int64.to_int (Bytes.get_int64_le seg.data off)
  end
  else
    let seg = scalar_check t addr word_size Fault.Read in
    let off = addr - seg.base in
    if split seg off then begin
      let v = ref 0 in
      for i = word_size - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get seg.data (phys_off seg (off + i)))
      done;
      !v
    end
    else Int64.to_int (Bytes.get_int64_le seg.data (phys_off seg off))

let write64 t addr v =
  t.writes <- t.writes + 1;
  let seg = t.cache in
  let off = addr - seg.base and st = seg.state and hot_word = hot t in
  if
    fits seg off word_size
    && Array.unsafe_get st (off lsr page_shift) = hot_word
    && Array.unsafe_get st ((off + word_size - 1) lsr page_shift) = hot_word
  then begin
    charge_word t addr;
    Bytes.set_int64_le seg.data off (Int64.of_int v)
  end
  else
    (* Every byte validates before any mutates: a word straddling into an
       unmapped or protected page never tears. *)
    let seg = scalar_check t addr word_size Fault.Write in
    let off = addr - seg.base in
    if split seg off then
      for i = 0 to word_size - 1 do
        Bytes.set seg.data (phys_off seg (off + i)) (Char.unsafe_chr ((v asr (8 * i)) land 0xFF))
      done
    else Bytes.set_int64_le seg.data (phys_off seg off) (Int64.of_int v)

(* --- bulk validation ---

   Every multi-byte operation validates its whole range before mutating
   anything: segment containment and page protection are checked page run
   by page run, charging the TLB per page and the cache per line actually
   spanned, in address order.  On an illegal byte the fault carries
   exactly that byte's address, its page and line have been charged (as
   the bytewise walk would have), and no data has moved — multi-byte
   operations are atomic with respect to faults. *)

(* A maximal run of the range that is contiguous in one segment's backing
   store.  [seg_off] is the VIRTUAL segment-relative offset; blit sites
   translate through {!run_off}.  In an aliased segment adjacent virtual
   pages may live on non-adjacent physical pages, so runs there never
   cross a page boundary — which makes the one-translation-per-run rule
   sound. *)
type run = { rseg : segment; seg_off : int; buf_off : int; rlen : int }

let run_off r = phys_off r.rseg r.seg_off

let validate t ~addr ~len access =
  let fin = addr + len in
  let rec seg_runs pos acc =
    if pos >= fin then List.rev acc
    else
      let seg = find t pos in
      if seg == none then begin
        charge_byte t pos;
        raise_fault t (Fault.Unmapped { addr = pos; access })
      end;
      let run_end = min fin (seg.base + seg.len) in
      let run_end = if seg.aliased then min run_end ((pos lor (page_size - 1)) + 1) else run_end in
      for p = (pos - seg.base) lsr page_shift to (run_end - 1 - seg.base) lsr page_shift do
        let page_base = seg.base + (p lsl page_shift) in
        let page_first = max pos page_base in
        enter_page t seg p page_first access;
        let page_last = min (run_end - 1) (page_base + page_size - 1) in
        charge_lines t ~first:page_first ~last:page_last
      done;
      seg_runs run_end
        ({ rseg = seg; seg_off = pos - seg.base; buf_off = pos - addr; rlen = run_end - pos }
        :: acc)
  in
  if len = 0 then [] else seg_runs addr []

(* Touched-page bookkeeping runs only after the whole range validated:
   a faulting bulk write leaves no trace, not even in the stats. *)
let mark_runs_touched t runs =
  List.iter
    (fun r ->
      for p = r.seg_off lsr page_shift to (r.seg_off + r.rlen - 1) lsr page_shift do
        mark_touched t r.rseg p
      done)
    runs

(* --- bulk access --- *)

let read_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Mem.read_bytes: negative length";
  let runs = validate t ~addr ~len Fault.Read in
  t.reads <- t.reads + len;
  let buf = Bytes.create len in
  List.iter (fun r -> Bytes.blit r.rseg.data (run_off r) buf r.buf_off r.rlen) runs;
  Bytes.unsafe_to_string buf

let write_bytes t ~addr s =
  let len = String.length s in
  let runs = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_runs_touched t runs;
  List.iter (fun r -> Bytes.blit_string s r.buf_off r.rseg.data (run_off r) r.rlen) runs

let fill t ~addr ~len c =
  if len < 0 then invalid_arg "Mem.fill: negative length";
  let runs = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_runs_touched t runs;
  List.iter (fun r -> Bytes.fill r.rseg.data (run_off r) r.rlen c) runs

let fill_random t ~addr ~len rng =
  if len < 0 then invalid_arg "Mem.fill_random: negative length";
  let runs = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_runs_touched t runs;
  (* Drawn only now, so a faulting fill consumes no draws.  The stream is
     one u32 per four bytes of the range, least-significant byte first,
     so replicas built from equal seeds produce byte-identical heaps.
     Each run takes whole words straight into the backing store; a word
     cut by a run boundary (meshed segments split runs per page) leaves
     its high bytes in [carry] for the next run, keeping the stream
     continuous. *)
  let carry = ref 0 and pending = ref 0 and pos = ref 0 in
  let drain data fin =
    while !pending > 0 && !pos < fin do
      Bytes.set data !pos (Char.unsafe_chr (!carry land 0xFF));
      carry := !carry lsr 8;
      decr pending;
      incr pos
    done
  in
  List.iter
    (fun r ->
      let data = r.rseg.data in
      pos := run_off r;
      let fin = !pos + r.rlen in
      drain data fin;
      let words = (fin - !pos) / 4 in
      Dh_rng.Mwc.fill_u32_le rng data ~pos:!pos ~words;
      pos := !pos + (4 * words);
      if !pos < fin then begin
        carry := Dh_rng.Mwc.next_u32 rng;
        pending := 4;
        drain data fin
      end)
    runs

let cstring ?(limit = max_int) t addr =
  let buf = Buffer.create 16 in
  (* Page by page: check each chunk's first byte as a one-byte read would,
     then search the backing bytes for the terminator up to the page end
     (one physical translation covers the chunk). *)
  let rec scan pos budget =
    if budget <= 0 then Buffer.contents buf
    else
      let seg = scalar_check t pos 1 Fault.Read in
      let n = min budget ((pos lor (page_size - 1)) + 1 - pos) in
      let off = phys_off seg (pos - seg.base) in
      match Bytes.index_from_opt seg.data off '\000' with
      | Some k when k < off + n ->
        charge_lines t ~first:pos ~last:(pos + k - off);
        t.reads <- t.reads + k - off + 1;
        Buffer.add_subbytes buf seg.data off (k - off);
        Buffer.contents buf
      | Some _ | None ->
        charge_lines t ~first:pos ~last:(pos + n - 1);
        t.reads <- t.reads + n;
        Buffer.add_subbytes buf seg.data off n;
        scan (pos + n) (budget - n)
  in
  scan addr limit

(* --- page meshing --- *)

let alias t ~src ~dst ~live =
  if src land (page_size - 1) <> 0 || dst land (page_size - 1) <> 0 then
    invalid_arg "Mem.alias: pages must be page-aligned";
  if src = dst then invalid_arg "Mem.alias: src and dst are the same page";
  let seg = find t src in
  if seg == none then invalid_arg "Mem.alias: src is not mapped";
  if dst < seg.base || dst >= seg.base + seg.len then
    invalid_arg "Mem.alias: src and dst must lie in one segment";
  let sv = (src - seg.base) lsr page_shift in
  let dv = (dst - seg.base) lsr page_shift in
  let ps = seg.phys.(sv) in
  let pd = seg.phys.(dv) in
  if ps = pd then invalid_arg "Mem.alias: pages already share a backing page";
  if seg.refcnt.(pd) <> 1 then
    invalid_arg "Mem.alias: dst's backing page is shared (mesh it as src)";
  if seg.state.(sv) land seg.state.(dv) land prot_bits <> prot_bits then
    invalid_arg "Mem.alias: both pages must be Read_write";
  List.iter
    (fun (off, len) ->
      if off < 0 || len < 0 || off + len > page_size then
        invalid_arg "Mem.alias: live range outside the page")
    live;
  (* The merge writes into the survivor: pre-image it first so a rewind
     across this mesh restores its exact pre-merge bytes.  The copy is
     allocator-internal compaction, not a program access — no stats or
     TLB/cache charges (the virtual address stream is unchanged). *)
  if live <> [] then mark_touched_phys t seg ps;
  (match t.ckpt with
  | Some c when seg.born_epoch <> t.epoch -> c.mesh_log <- (seg, dv, pd) :: c.mesh_log
  | Some _ | None -> ());
  List.iter
    (fun (off, len) ->
      Bytes.blit seg.data ((pd lsl page_shift) + off) seg.data ((ps lsl page_shift) + off) len)
    live;
  (* Two touched physical pages collapse into one: the retired page's
     count transfers to the survivor (or cancels if both were counted).
     The retired page's bytes are deliberately NOT scrubbed — nothing
     maps to it, and keeping them lets a rewind resurrect the page
     without an extra pre-image. *)
  if seg.state.(pd) land touched_bit <> 0 then begin
    seg.state.(pd) <- seg.state.(pd) land lnot touched_bit;
    if seg.state.(ps) land touched_bit <> 0 then t.touched_pages <- t.touched_pages - 1
    else seg.state.(ps) <- seg.state.(ps) lor touched_bit
  end;
  seg.phys.(dv) <- ps;
  seg.refcnt.(ps) <- seg.refcnt.(ps) + 1;
  seg.refcnt.(pd) <- 0;
  seg.meshes <- seg.meshes + 1;
  seg.aliased <- true;
  if t.cache == seg then t.cache <- none

let backing_page t addr =
  let seg = find t addr in
  if seg == none then invalid_arg "Mem.backing_page: unmapped address";
  seg.base + (seg.phys.((addr - seg.base) lsr page_shift) lsl page_shift)

(* --- checkpoint / rewind --- *)

(* Arm an empty undo log in a fresh epoch, so every page is clean. *)
let arm t ck_next_base =
  t.ckpt <-
    Some { pre = []; pre_count = 0; born = []; gone = []; prot_log = []; mesh_log = []; ck_next_base };
  t.epoch <- t.epoch + 1;
  t.dirty <- 0

(* Incremental by construction: arming copies nothing.  If a checkpoint
   was already armed its undo log is dropped (the old window commits) —
   only pages dirtied after this call will ever be pre-imaged. *)
let checkpoint t = arm t t.next_base

let checkpointed t = Option.is_some t.ckpt

let discard_checkpoint t =
  t.ckpt <- None;
  t.epoch <- t.epoch + 1;
  t.dirty <- 0

let rewind t =
  match t.ckpt with
  | None -> invalid_arg "Mem.rewind: no checkpoint armed"
  | Some c ->
    (* Segments mapped since the checkpoint vanish wholesale... *)
    let segments_discarded = List.length c.born in
    List.iter
      (fun base ->
        let i = index_of_base t base in
        t.touched_unmapped <- t.touched_unmapped + touched_in t.segs.(i);
        remove t i)
      c.born;
    (* ...segments unmapped since come back exactly as they were (their
       records were never mutated after the unmap, and any writes before
       it have pre-images below). *)
    let segments_remapped = List.length c.gone in
    List.iter
      (fun seg ->
        insert t seg;
        t.touched_unmapped <- t.touched_unmapped - touched_in seg)
      c.gone;
    (* Protection pre-states, newest first: the oldest entry for a page
       lands last, restoring its arm-time protection. *)
    let protections_restored = List.length c.prot_log in
    List.iter (fun (seg, p, code) -> set_prot seg p code) c.prot_log;
    (* Meshes performed inside the window are undone newest-first: each
       virtual page returns to its previous backing page (whose bytes were
       never scrubbed), and the survivor drops a reference.  Pre-images
       are keyed by physical page, so the blits below restore bytes
       correctly whichever mapping a page had when it was dirtied. *)
    List.iter
      (fun (seg, dv, old_phys) ->
        let cur = seg.phys.(dv) in
        seg.refcnt.(cur) <- seg.refcnt.(cur) - 1;
        seg.refcnt.(old_phys) <- seg.refcnt.(old_phys) + 1;
        seg.phys.(dv) <- old_phys;
        seg.meshes <- seg.meshes - 1;
        if seg.meshes = 0 then seg.aliased <- false)
      c.mesh_log;
    List.iter
      (fun (seg, p, img) -> Bytes.blit img 0 seg.data (p lsl page_shift) page_size)
      c.pre;
    t.next_base <- c.ck_next_base;
    t.cache <- none;
    (* The checkpoint stays armed: a second fault in the resumed window
       rewinds to the same state (double-rewind).  Fresh pre-images will
       be re-saved on the next writes — and they equal these, because the
       pages have just been restored. *)
    arm t c.ck_next_base;
    { pages_restored = c.pre_count; segments_remapped; segments_discarded; protections_restored }

let dirty_pages t = t.dirty
let preimaged_pages t = t.preimaged

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> failwith ("Mem.check_invariants: " ^ s)) fmt in
  let pre = Hashtbl.create 16 and touched = ref 0 and dirty = ref 0 in
  Option.iter
    (fun c ->
      List.iter (fun (seg, p, _) -> Hashtbl.replace pre (seg.base, p) ()) c.pre;
      if List.length c.pre <> c.pre_count then fail "pre_count %d is off" c.pre_count)
    t.ckpt;
  Array.iteri
    (fun i seg ->
      if i >= t.nsegs && seg != none then fail "index slot %d past the live segments" i;
      let limit = if i + 1 < t.nsegs then t.segs.(i + 1).base else t.next_base in
      if i < t.nsegs && seg.base + seg.len + page_size > limit then
        fail "0x%x: out of order or without its hole page" seg.base;
      let refs = Array.make (Array.length seg.state) 0 in
      Array.iter (fun p -> refs.(p) <- refs.(p) + 1) seg.phys;
      Array.iteri
        (fun p w ->
          let is_touched = w land touched_bit <> 0 and now = dirtied w = t.epoch in
          let where = lazy (Printf.sprintf "0x%x page %d" seg.base p) in
          if refs.(p) <> seg.refcnt.(p) then fail "%s: refcnt %d, backs %d" (Lazy.force where) seg.refcnt.(p) refs.(p);
          if w land prot_bits = writable || dirtied w > t.epoch then fail "%s: bad word %x" (Lazy.force where) w;
          if refs.(p) = 0 && is_touched then fail "%s: retired but touched" (Lazy.force where);
          if refs.(p) > 0 && now && not is_touched then fail "%s: dirty, not touched" (Lazy.force where);
          if refs.(p) > 0 && now && t.ckpt <> None && seg.born_epoch <> t.epoch
             && not (Hashtbl.mem pre (seg.base, p))
          then fail "%s: dirty since the checkpoint without a pre-image" (Lazy.force where);
          if refs.(p) > 0 && now then incr dirty;
          if is_touched then incr touched)
        seg.state;
      let retired = Array.fold_left (fun n r -> if r = 0 then n + 1 else n) 0 refs in
      if retired <> seg.meshes || seg.aliased <> (retired > 0) || seg.born_epoch > t.epoch then
        fail "0x%x: %d retired pages, meshes %d, aliased %b" seg.base retired seg.meshes seg.aliased)
    t.segs;
  if !touched + t.touched_unmapped <> t.touched_pages then
    fail "touched_pages %d, %d live + %d unmapped" t.touched_pages !touched t.touched_unmapped;
  if !dirty > t.dirty then fail "%d pages dirty, dirty count %d" !dirty t.dirty;
  let i = search t.segs t.cache.base 0 t.nsegs in
  if t.cache != none && (i < 0 || t.segs.(i) != t.cache || t.cache.aliased) then
    fail "cached segment 0x%x is not live and never meshed" t.cache.base

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    mmaps = t.mmaps;
    munmaps = t.munmaps;
    tlb_misses = t.tlb_misses;
    cache_misses = t.cache_misses;
    dirty_pages = t.dirty;
  }

let touched_pages t = t.touched_pages

let pp_stats ppf (s : stats) =
  let accesses = s.reads + s.writes in
  (* Guard the derived hit rates: an empty run has no accesses, and
     0/0 must print as "-" rather than nan. *)
  let hit misses =
    if accesses = 0 then "-"
    else
      Printf.sprintf "%.1f%%"
        (100. *. (1. -. (float_of_int misses /. float_of_int accesses)))
  in
  Format.fprintf ppf
    "reads=%d writes=%d mmaps=%d munmaps=%d dirty=%d tlb-hit=%s cache-hit=%s"
    s.reads s.writes s.mmaps s.munmaps s.dirty_pages (hit s.tlb_misses)
    (hit s.cache_misses)
