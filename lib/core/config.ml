module Size_class = Dh_alloc.Size_class

type t = {
  multiplier : int;
  heap_size : int;
  replicated : bool;
  seed : int;
  jobs : int;
  obs : bool;
  mesh : bool;
  mesh_threshold : int;
  max_live_fraction : float option;
  grow : int option;
}

let validate t =
  if t.multiplier < 2 then invalid_arg "Config: multiplier must be >= 2";
  (match t.max_live_fraction with
  | Some f when not (f > 0. && f <= 1.) ->
    invalid_arg "Config: max_live_fraction must be in (0, 1]"
  | Some _ | None -> ());
  if t.jobs < 1 then invalid_arg "Config: jobs must be >= 1";
  if t.mesh_threshold <= 0 then invalid_arg "Config: mesh threshold must be positive";
  (match t.grow with
  | Some h when h < 0 -> invalid_arg "Config: grow headroom must be >= 0"
  | Some _ | None -> ());
  let region = t.heap_size / Size_class.count in
  if region < Size_class.max_size * t.multiplier then
    invalid_arg "Config: heap too small for the largest size class";
  t

let default =
  validate
    {
      multiplier = 2;
      heap_size = 24 lsl 20;
      replicated = false;
      seed = 1;
      jobs = 1;
      obs = false;
      mesh = false;
      mesh_threshold = 256 lsl 10;
      max_live_fraction = None;
      grow = None;
    }

let paper_default = validate { default with heap_size = 384 lsl 20 }

let v ?(multiplier = default.multiplier) ?(heap_size = default.heap_size)
    ?(replicated = default.replicated) ?(seed = default.seed)
    ?(jobs = default.jobs) ?(obs = default.obs) ?(mesh = default.mesh)
    ?(mesh_threshold = default.mesh_threshold) ?max_live_fraction ?grow () =
  validate
    {
      multiplier;
      heap_size;
      replicated;
      seed;
      jobs;
      obs;
      mesh;
      mesh_threshold;
      max_live_fraction;
      grow;
    }

let region_size t =
  let raw = t.heap_size / Size_class.count in
  raw / Dh_mem.Mem.page_size * Dh_mem.Mem.page_size

let objects_in_region t ~class_ = region_size t / Size_class.size class_

(* The occupancy ceiling of §4.2.  [max_live_fraction] generalizes the
   integer expansion factor to fractional M (ceiling = 1/M): the
   safety-margin audit sweeps M = 1.5, which no integer [multiplier]
   can express.  [None] preserves the paper's [objects / M] exactly.
   Under growth the ceiling also keeps [h] slots free. *)
let live_limit t objects =
  let limit =
    match t.max_live_fraction with
    | None -> objects / t.multiplier
    | Some f -> max 1 (int_of_float (f *. float_of_int objects))
  in
  match t.grow with None -> limit | Some h -> min limit (objects - h)

let threshold t ~class_ = live_limit t (objects_in_region t ~class_)
