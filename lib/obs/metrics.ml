type counter_cell = { mutable count : int }

let counter_cells = Sharded.kind (fun () -> { count = 0 })

type counter = counter_cell Sharded.t

type gauge = Cell of int Atomic.t | Callback of (unit -> int)

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Quantile.t
  | Window of Window.t

type t = { items : (string, instrument) Hashtbl.t; lock : Mutex.t }

let create () = { items = Hashtbl.create 64; lock = Mutex.create () }

let default = create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Window _ -> "window"

let mismatch name existing =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name existing))

(* Get-or-create under the registry lock.  Only instrument creation and
   dumping take the lock; recording goes straight to the domain-local
   cells. *)
let intern t name make select =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.items name with
      | Some existing -> (
        match select existing with Some v -> v | None -> mismatch name existing)
      | None ->
        let fresh = make () in
        Hashtbl.replace t.items name fresh;
        match select fresh with Some v -> v | None -> assert false)

let counter t name =
  intern t name
    (fun () -> Counter (Sharded.create counter_cells))
    (function Counter c -> Some c | _ -> None)

let add c n =
  if Control.enabled () then begin
    let cell = Sharded.cell c in
    cell.count <- cell.count + n
  end

let incr c = add c 1

let counter_value c =
  List.fold_left (fun acc cell -> acc + cell.count) 0 (Sharded.cells c)

let gauge t name =
  intern t name
    (fun () -> Gauge (Cell (Atomic.make 0)))
    (function Gauge (Cell _ as g) -> Some g | _ -> None)

let set g n =
  if Control.enabled () then match g with Cell a -> Atomic.set a n | Callback _ -> ()

let gauge_value = function
  | Cell a -> Atomic.get a
  | Callback f -> ( try f () with _ -> 0)

(* Callback gauges replace any gauge of the same name: the newest
   component of a given name is the one the dump reflects. *)
let gauge_fn t name f =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.items name with
      | Some (Gauge _) | None -> Hashtbl.replace t.items name (Gauge (Callback f))
      | Some existing -> mismatch name existing)

let histogram t name =
  intern t name
    (fun () -> Histogram (Quantile.create ()))
    (function Histogram q -> Some q | _ -> None)

let window t name ~width ~buckets =
  intern t name
    (fun () -> Window (Window.create ~width ~buckets))
    (function
      | Window w ->
        let w', b' = Window.geometry w in
        if w' <> width || b' <> buckets then
          invalid_arg
            (Printf.sprintf
               "Metrics: window %S already registered as %d x %d (asked for %d x %d)"
               name w' b' width buckets);
        Some w
      | _ -> None)

let find_window t name =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.items name) with
  | Some (Window w) -> Some w
  | _ -> None

type row = {
  name : string;
  kind : string;
  value : int;
  p50 : int option;
  p99 : int option;
  detail : string;
}

let row name kind value = { name; kind; value; p50 = None; p99 = None; detail = "" }

let dump t =
  let items =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) t.items [])
  in
  List.sort compare
    (List.filter_map
       (fun (name, inst) ->
         match inst with
         | Counter c -> Some (row name "counter" (counter_value c))
         | Gauge g -> Some (row name "gauge" (gauge_value g))
         | Histogram q ->
           let s = Quantile.snapshot q in
           Some
             {
               (row name "histogram" (Quantile.count s)) with
               p50 = Some (Quantile.quantile s 0.5);
               p99 = Some (Quantile.quantile s 0.99);
               detail = Printf.sprintf "sum=%d mean=%.1f" (Quantile.sum s) (Quantile.mean s);
             }
         | Window _ -> None)
       items)

(* CSV cells are names, kinds, ints and "k=v ..." details: no quoting
   needed beyond defence against a stray comma. *)
let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b "name,kind,value,p50,p99,detail\n";
  let quantile_cell = function None -> "" | Some v -> string_of_int v in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%s,%s,%s\n" (csv_cell r.name) r.kind r.value
           (quantile_cell r.p50) (quantile_cell r.p99) (csv_cell r.detail)))
    (dump t);
  Buffer.contents b

let write_csv ~path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_csv t))

let reset t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.items)
