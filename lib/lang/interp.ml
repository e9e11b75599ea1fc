module Allocator = Dh_alloc.Allocator
module Policy = Dh_alloc.Policy
module Program = Dh_alloc.Program
module Process = Dh_mem.Process

type libc = Unchecked | Bounded

exception Runtime_error of string

let err fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* Control-flow signals. *)
exception Return_signal of int
exception Break_signal
exception Continue_signal

(* One activation of a compiled function: a value and a live flag per
   slot.  A slot is live while the scope that declares it is active and
   its [var] has run — exactly the bindings a scope chain would hold. *)
type frame = { vals : int array; live : Bytes.t; fn : fn }

(* A compiled function. *)
and fn = {
  mutable nslots : int;
  mutable scopes : layout list;  (** Its scopes, last opened first. *)
  mutable params : int array;  (** Slot of each parameter, in order. *)
  mutable body : frame -> unit;
}

(* A scope's slots — [names] in slot order from slot [first] — and, per
   number of live slots, the order they are reported to the GC in
   (filled on first use; see [root_order]). *)
and layout = { first : int; names : string array; orders : int list option array }

type state = {
  libc : libc;
  ctx : Program.context;
  policy : Policy.t;
  alloc : Allocator.t;
  fuel : Process.Fuel.t;
  (* Activations on the MiniC call stack, innermost first, so the GC
     root provider can see every caller's variables. *)
  mutable frames : frame list;
  (* The string literals, and how many of them have been allocated. *)
  literals : layout;
  literal_addrs : int array;
  mutable nliterals : int;
  mutable input_pos : int;
  prog_name : string;
  (* Audit sites named so far; the next one gets this number. *)
  mutable sites : int;
}

(* --- heap access helpers --- *)

let load8 st addr = Policy.load8 st.policy addr
let store8 st addr v = Policy.store8 st.policy addr v

let cstrlen st addr =
  let rec go n = if load8 st (addr + n) = 0 then n else go (n + 1) in
  go 0

let write_cstring st addr s =
  String.iteri (fun i c -> store8 st (addr + i) (Char.code c)) s;
  store8 st (addr + String.length s) 0

(* Space from [ptr] to the end of its live object — the §4.4 bound. *)
let available st ptr =
  match st.alloc.Allocator.find_object ptr with
  | Some { Allocator.base; size; allocated } when allocated -> Some (base + size - ptr)
  | Some _ | None -> None

let bounded_limit st dst n =
  match st.libc with
  | Unchecked -> n
  | Bounded -> (
    match available st dst with None -> n | Some room -> min n room)

(* --- builtins --- *)

let builtin_strcpy st dst src =
  let room = match st.libc with Unchecked -> None | Bounded -> available st dst in
  match room with
  | None ->
    let rec go i =
      let c = load8 st (src + i) in
      store8 st (dst + i) c;
      if c <> 0 then go (i + 1)
    in
    go 0
  | Some room when room <= 0 -> ()
  | Some room ->
    let rec go i =
      if i = room - 1 then store8 st (dst + i) 0
      else begin
        let c = load8 st (src + i) in
        store8 st (dst + i) c;
        if c <> 0 then go (i + 1)
      end
    in
    go 0

let builtin_strncpy st dst src n =
  let n = bounded_limit st dst n in
  let rec go i =
    if i < n then begin
      let c = load8 st (src + i) in
      store8 st (dst + i) c;
      if c = 0 then
        for j = i + 1 to n - 1 do
          store8 st (dst + j) 0
        done
      else go (i + 1)
    end
  in
  go 0

let builtin_memcpy st dst src n =
  let n = bounded_limit st dst n in
  for i = 0 to n - 1 do
    store8 st (dst + i) (load8 st (src + i))
  done

let builtin_memset st dst c n =
  let n = bounded_limit st dst n in
  for i = 0 to n - 1 do
    store8 st (dst + i) c
  done

let builtin_gets st dst =
  (* Read one input line with no bounds checking whatsoever. *)
  let input = st.ctx.Program.input in
  let start = st.input_pos in
  let len = String.length input in
  let rec line_end i = if i >= len || input.[i] = '\n' then i else line_end (i + 1) in
  let stop = line_end start in
  for i = start to stop - 1 do
    store8 st (dst + (i - start)) (Char.code input.[i])
  done;
  store8 st (dst + (stop - start)) 0;
  st.input_pos <- (if stop < len then stop + 1 else len);
  if start >= len && stop = len then 0 else dst

let builtin_getchar st =
  if st.input_pos >= String.length st.ctx.Program.input then -1
  else begin
    let c = Char.code st.ctx.Program.input.[st.input_pos] in
    st.input_pos <- st.input_pos + 1;
    c
  end

let read_cstring st addr =
  let len = cstrlen st addr in
  String.init len (fun i -> Char.chr (load8 st (addr + i) land 0xFF))

let builtin_strcmp st a b =
  let rec go i =
    let ca = load8 st (a + i) and cb = load8 st (b + i) in
    if ca <> cb then compare ca cb else if ca = 0 then 0 else go (i + 1)
  in
  go 0

(* An allocating callsite's audit site, named the first time the site
   allocates while observability is on — so sites are numbered in
   first-execution order.  An obs-off run pays one atomic load. *)
let alloc_site st builtin =
  let site =
    lazy
      (let s =
         Dh_obs.Audit.site (Printf.sprintf "minic:%s:%s#%d" st.prog_name builtin st.sites)
       in
       st.sites <- st.sites + 1;
       s)
  in
  fun f ->
    if not (Dh_obs.Control.enabled ()) then f ()
    else Dh_obs.Audit.with_site (Lazy.force site) f

let or_null = function Some p -> p | None -> 0

(* Builtins are bound once per callsite at compile time; [Check]'s arity
   table decides which names are builtins, so a builtin beats a user
   function of the same name. *)
let builtin0 st = function
  | "getchar" -> fun () -> builtin_getchar st
  | "now" -> fun () -> st.ctx.Program.now
  | name -> err "internal: no builtin %s/0" name

let builtin1 st = function
  | "malloc" ->
    let site = alloc_site st "malloc" in
    fun n -> or_null (site (fun () -> st.alloc.Allocator.malloc n))
  | "calloc" ->
    let site = alloc_site st "calloc" in
    fun n -> (
      (* zero-fill through the access policy so a fail-stop policy's
         initialization tracking sees the writes *)
      match site (fun () -> st.alloc.Allocator.malloc n) with
      | Some p ->
        for i = 0 to n - 1 do
          store8 st (p + i) 0
        done;
        p
      | None -> 0)
  | "free" ->
    fun p ->
      st.alloc.Allocator.free p;
      0
  | "print_int" ->
    fun v ->
      Process.Out.print_int st.ctx.Program.out v;
      0
  | "print_char" ->
    fun v ->
      Process.Out.print_char st.ctx.Program.out (Char.chr (v land 0xFF));
      0
  | "print_str" ->
    fun p ->
      Process.Out.print_string st.ctx.Program.out (read_cstring st p);
      0
  | "gets" -> builtin_gets st
  | "strlen" -> cstrlen st
  | "load8" -> load8 st
  | "exit" -> fun code -> raise (Process.Exit_program code)
  | name -> err "internal: no builtin %s/1" name

let builtin2 st = function
  | "realloc" ->
    let site = alloc_site st "realloc" in
    fun p n -> or_null (site (fun () -> Allocator.realloc st.alloc p n))
  | "strcpy" ->
    fun d s ->
      builtin_strcpy st d s;
      d
  | "strcmp" -> builtin_strcmp st
  | "store8" ->
    fun p v ->
      store8 st p v;
      0
  | name -> err "internal: no builtin %s/2" name

let builtin3 st = function
  | "strncpy" ->
    fun d s n ->
      builtin_strncpy st d s n;
      d
  | "memcpy" ->
    fun d s n ->
      builtin_memcpy st d s n;
      d
  | "memset" ->
    fun d c n ->
      builtin_memset st d c n;
      d
  | name -> err "internal: no builtin %s/3" name

(* --- compilation: names to slots ---

   Each function is compiled once per run.  Every variable binding — a
   parameter, or a [var] of one block — gets its own slot in the
   function's frame; a block's slots are contiguous and numbered after
   those of the scopes around it.  Name lookup happens here, against the
   bindings textually in scope, so the closures index the frame
   directly.  The one binding that is not known statically is a [var] in
   a [for] step: it joins the loop's scope only once the step has run,
   so from the second iteration on.  Uses in the condition, body and
   step see it through a [Maybe] that tests the slot's live flag and
   otherwise falls back to the enclosing binding. *)

type binding = Definite of int | Maybe of int

type scope = {
  slots : (string * int) list;  (** Every name the scope declares. *)
  mutable visible : (string * binding) list;  (** Those declared so far. *)
}

type var = Slot of int | Maybe_slot of int * var | Unbound

type compiler = {
  st : state;
  program : Ast.program;
  fns : (string, fn) Hashtbl.t;  (** Compiled so far, by name. *)
  mutable current : fn;  (** The function whose slots are being allocated. *)
}

let new_fn () = { nslots = 0; scopes = []; params = [||]; body = (fun _ -> ()) }

let rec resolve scopes x =
  match scopes with
  | [] -> Unbound
  | scope :: outer -> (
    match List.assoc_opt x scope.visible with
    | Some (Definite s) -> Slot s
    | Some (Maybe s) -> Maybe_slot (s, resolve outer x)
    | None -> resolve outer x)

let layout ~first names =
  { first; names; orders = Array.make (Array.length names + 1) None }

(* Open a scope declaring [names] (first occurrence wins the order) in
   the function being compiled. *)
let open_scope c names =
  let slots =
    List.fold_left
      (fun acc x ->
        if List.mem_assoc x acc then acc
        else begin
          let s = c.current.nslots in
          c.current.nslots <- s + 1;
          (x, s) :: acc
        end)
      [] names
  in
  let slots = List.rev slots in
  (match slots with
  | (_, first) :: _ ->
    let names = Array.of_list (List.map fst slots) in
    c.current.scopes <- layout ~first names :: c.current.scopes
  | [] -> ());
  { slots; visible = [] }

let declare scope x =
  scope.visible <- (x, Definite (List.assoc x scope.slots)) :: scope.visible

let is_live f s = Bytes.unsafe_get f.live s <> '\000'
let set_live f s = Bytes.unsafe_set f.live s '\001'

(* Slots are allocated by the compiler below the frame size, so frame
   accesses skip the bounds check. *)
let rec reader x = function
  | Slot s -> fun f -> Array.unsafe_get f.vals s
  | Maybe_slot (s, outer) ->
    let outer = reader x outer in
    fun f -> if is_live f s then Array.unsafe_get f.vals s else outer f
  | Unbound -> fun _ -> err "unknown variable %s" x

let rec writer x = function
  | Slot s -> fun f v -> Array.unsafe_set f.vals s v
  | Maybe_slot (s, outer) ->
    let outer = writer x outer in
    fun f v -> if is_live f s then Array.unsafe_set f.vals s v else outer f v
  | Unbound -> fun _ _ -> err "unknown variable %s" x

(* Leave a scope: its slots stop being live (and so stop being GC
   roots) however the scope is exited. *)
let scoped scope run =
  match scope.slots with
  | [] -> run
  | (_, first) :: _ ->
    let n = List.length scope.slots in
    fun f ->
      match run f with
      | () -> Bytes.unsafe_fill f.live first n '\000'
      | exception e ->
        Bytes.unsafe_fill f.live first n '\000';
        raise e

let truthy v = v <> 0
let of_bool b = if b then 1 else 0
let nothing _ = ()

let rec seq = function
  | [] -> nothing
  | [ s ] -> s
  | s :: rest ->
    let rest = seq rest in
    fun f ->
      s f;
      rest f

(* A loop burns fuel per test, so even an empty body times out; a
   [continue] skips to the step, a [break] leaves the loop. *)
let loop fuel check body step f =
  try
    while
      Process.Fuel.burn fuel;
      check f
    do
      (try body f with Continue_signal -> ());
      step f
    done
  with Break_signal -> ()

(* --- compilation: expressions --- *)

let rec compile_expr c scopes (e : Ast.expr) : frame -> int =
  match e with
  | Ast.Int n -> fun _ -> n
  | Ast.Char ch ->
    let n = Char.code ch in
    fun _ -> n
  | Ast.Str s ->
    let st = c.st in
    let index = Option.get (Array.find_index (String.equal s) st.literals.names) in
    let addr = st.literal_addrs.(index) in
    fun _ -> addr
  | Ast.Var x -> reader x (resolve scopes x)
  | Ast.Unop (op, e) -> (
    let e = compile_expr c scopes e in
    match op with
    | Ast.Neg -> fun f -> -e f
    | Ast.Not -> fun f -> of_bool (e f = 0)
    | Ast.Bnot -> fun f -> lnot (e f)
    | Ast.Deref ->
      let policy = c.st.policy in
      fun f -> Policy.load policy (e f))
  | Ast.Binop (op, a, b) -> compile_binop c scopes op a b
  | Ast.Index (a, i) ->
    let a = compile_expr c scopes a and i = compile_expr c scopes i in
    let policy = c.st.policy in
    fun f ->
      let base = a f in
      let index = i f in
      Policy.load policy (base + (8 * index))
  | Ast.Call (name, args) -> compile_call c scopes name args

and compile_binop c scopes op a b =
  let a = compile_expr c scopes a and b = compile_expr c scopes b in
  (* Operands run left to right: [a] before [b]. *)
  match op with
  | Ast.And -> fun f -> if truthy (a f) then of_bool (truthy (b f)) else 0
  | Ast.Or -> fun f -> if truthy (a f) then 1 else of_bool (truthy (b f))
  | Ast.Add -> fun f -> let x = a f in x + b f
  | Ast.Sub -> fun f -> let x = a f in x - b f
  | Ast.Mul -> fun f -> let x = a f in x * b f
  | Ast.Div ->
    fun f ->
      let x = a f in
      let y = b f in
      if y = 0 then err "division by zero" else x / y
  | Ast.Mod ->
    fun f ->
      let x = a f in
      let y = b f in
      if y = 0 then err "modulo by zero" else x mod y
  | Ast.Eq -> fun f -> let x = a f in of_bool (x = b f)
  | Ast.Ne -> fun f -> let x = a f in of_bool (x <> b f)
  | Ast.Lt -> fun f -> let x = a f in of_bool (x < b f)
  | Ast.Le -> fun f -> let x = a f in of_bool (x <= b f)
  | Ast.Gt -> fun f -> let x = a f in of_bool (x > b f)
  | Ast.Ge -> fun f -> let x = a f in of_bool (x >= b f)
  | Ast.Band -> fun f -> let x = a f in x land b f
  | Ast.Bor -> fun f -> let x = a f in x lor b f
  | Ast.Bxor -> fun f -> let x = a f in x lxor b f
  | Ast.Shl -> fun f -> let x = a f in x lsl (b f land 63)
  | Ast.Shr -> fun f -> let x = a f in x asr (b f land 63)

and compile_call c scopes name args =
  let argc = List.length args in
  let args = Array.of_list (List.map (compile_expr c scopes) args) in
  (* A wrong arity is an error only when the call runs, after its
     arguments have been evaluated. *)
  let arity_error expected f =
    Array.iter (fun a -> ignore (a f)) args;
    err "%s expects %d argument(s), got %d" name expected argc
  in
  match Check.builtin_arity name with
  | Some n when n <> argc -> arity_error n
  | Some _ -> (
    let st = c.st in
    match args with
    | [||] ->
      let b = builtin0 st name in
      fun _ -> b ()
    | [| a |] ->
      let b = builtin1 st name in
      fun f -> b (a f)
    | [| a; a2 |] ->
      let b = builtin2 st name in
      fun f ->
        let x = a f in
        b x (a2 f)
    | [| a; a2; a3 |] ->
      let b = builtin3 st name in
      fun f ->
        let x = a f in
        let y = a2 f in
        b x y (a3 f)
    | _ -> err "internal: builtin %s/%d" name argc)
  | None -> (
    match function_named c name with
    | None -> fun _ -> err "unknown function %s" name
    | Some fn when Array.length fn.params <> argc -> arity_error (Array.length fn.params)
    | Some fn ->
      let st = c.st in
      let params = fn.params in
      fun f ->
        let vals = Array.make fn.nslots 0 in
        for i = 0 to argc - 1 do
          Array.unsafe_set vals (Array.unsafe_get params i) ((Array.unsafe_get args i) f)
        done;
        invoke st fn vals)

(* Run [fn] on a frame whose parameter slots hold the arguments. *)
and invoke st fn vals =
  Process.Fuel.burn st.fuel;
  let frame = { vals; live = Bytes.make (Array.length vals) '\000'; fn } in
  Array.iter (set_live frame) fn.params;
  let caller = st.frames in
  st.frames <- frame :: caller;
  match fn.body frame with
  | () ->
    st.frames <- caller;
    0
  | exception Return_signal v ->
    st.frames <- caller;
    v
  | exception e ->
    st.frames <- caller;
    raise e

(* The compiled form of the function a call to [name] reaches — the
   first definition of that name — compiled on first reference. *)
and function_named c name =
  match Hashtbl.find_opt c.fns name with
  | Some fn -> Some fn
  | None -> (
    match Ast.find_func c.program name with
    | None -> None
    | Some def ->
      let fn = new_fn () in
      Hashtbl.replace c.fns name fn;
      let caller = c.current in
      c.current <- fn;
      let scope = open_scope c def.Ast.params in
      List.iter (declare scope) def.Ast.params;
      fn.params <- Array.of_list (List.map (fun p -> List.assoc p scope.slots) def.Ast.params);
      fn.body <- compile_block c [ scope ] def.Ast.body;
      c.current <- caller;
      Some fn)

(* --- compilation: statements --- *)

and compile_block c scopes block =
  let decls = List.filter_map (function Ast.Decl (x, _) -> Some x | _ -> None) block in
  let scope = open_scope c decls in
  let scopes = scope :: scopes in
  scoped scope (seq (List.map (compile_stmt c scope scopes) block))

(* Every statement burns one unit of fuel before it runs.  [scope] is
   the innermost scope, the one a [var] declares into. *)
and compile_stmt c scope scopes s =
  let run = compile_stmt_body c scope scopes s in
  let fuel = c.st.fuel in
  fun f ->
    Process.Fuel.burn fuel;
    run f

and compile_stmt_body c scope scopes (s : Ast.stmt) : frame -> unit =
  let policy = c.st.policy in
  match s with
  | Ast.Decl (x, e) ->
    let e = compile_expr c scopes e in
    let slot = List.assoc x scope.slots in
    declare scope x;
    fun f ->
      let v = e f in
      Array.unsafe_set f.vals slot v;
      set_live f slot
  | Ast.Assign (lv, e) -> (
    let e = compile_expr c scopes e in
    (* The right-hand side runs before the target address. *)
    match lv with
    | Ast.Lvar x ->
      let write = writer x (resolve scopes x) in
      fun f -> write f (e f)
    | Ast.Lderef a ->
      let a = compile_expr c scopes a in
      fun f ->
        let v = e f in
        Policy.store policy (a f) v
    | Ast.Lindex (a, i) ->
      let a = compile_expr c scopes a and i = compile_expr c scopes i in
      fun f ->
        let v = e f in
        let base = a f in
        let index = i f in
        Policy.store policy (base + (8 * index)) v)
  | Ast.If (cond, t, e) ->
    let cond = compile_expr c scopes cond in
    let t = compile_block c scopes t and e = compile_block c scopes e in
    fun f -> if truthy (cond f) then t f else e f
  | Ast.While (cond, body) ->
    let cond = compile_expr c scopes cond in
    loop c.st.fuel (fun f -> truthy (cond f)) (compile_block c scopes body) nothing
  | Ast.For (init, cond, step, body) ->
    let decl = function Some (Ast.Decl (x, _)) -> [ x ] | _ -> [] in
    let header = open_scope c (decl init @ decl step) in
    let scopes = header :: scopes in
    let compile_opt = function Some s -> compile_stmt c header scopes s | None -> nothing in
    let init = compile_opt init in
    (* A [var] step that the init did not already declare is visible
       only once the step has run. *)
    List.iter
      (fun x ->
        if not (List.mem_assoc x header.visible) then
          header.visible <- (x, Maybe (List.assoc x header.slots)) :: header.visible)
      (decl step);
    let check =
      match Option.map (compile_expr c scopes) cond with
      | None -> fun _ -> true
      | Some cond -> fun f -> truthy (cond f)
    in
    let body = compile_block c scopes body in
    let loop = loop c.st.fuel check body (compile_opt step) in
    scoped header (fun f ->
        init f;
        loop f)
  | Ast.Return None -> fun _ -> raise (Return_signal 0)
  | Ast.Return (Some e) ->
    let e = compile_expr c scopes e in
    fun f -> raise (Return_signal (e f))
  | Ast.Break -> fun _ -> raise Break_signal
  | Ast.Continue -> fun _ -> raise Continue_signal
  | Ast.Expr e ->
    let e = compile_expr c scopes e in
    fun f -> ignore (e f)
  | Ast.Block b -> compile_block c scopes b

(* --- entry points --- *)

let allocate_literals st =
  let site =
    if Dh_obs.Control.enabled () then
      Dh_obs.Audit.site (Printf.sprintf "minic:%s:literals" st.prog_name)
    else Dh_obs.Audit.unknown
  in
  Dh_obs.Audit.with_site site @@ fun () ->
  Array.iter
    (fun s ->
      match st.alloc.Allocator.malloc (String.length s + 1) with
      | Some addr ->
        write_cstring st addr s;
        st.literal_addrs.(st.nliterals) <- addr;
        st.nliterals <- st.nliterals + 1
      | None -> err "out of memory allocating string literal %S" s)
    st.literals.names

(* The GC root set: the literals, then the live slots of every active
   frame, outermost call and outermost scope first.  Within a scope the
   roots come in the reverse of the order a name-keyed [Hashtbl] of its
   bindings iterates them.  The order is observable: the collector marks
   in root order, and its simulated cache and TLB counts depend on it. *)
let root_order layout n =
  match layout.orders.(n) with
  | Some order -> order
  | None ->
    let t = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      Hashtbl.replace t layout.names.(i) i
    done;
    let order = Hashtbl.fold (fun _ i acc -> i :: acc) t [] in
    layout.orders.(n) <- Some order;
    order

let roots st () =
  let acc = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun l ->
          let n = ref 0 in
          while !n < Array.length l.names && is_live f (l.first + !n) do
            incr n
          done;
          if !n > 0 then
            acc := List.map (fun i -> f.vals.(l.first + i)) (root_order l !n) @ !acc)
        f.fn.scopes)
    st.frames;
  List.map (Array.get st.literal_addrs) (root_order st.literals st.nliterals) @ !acc

let run ?(libc = Unchecked) ?(name = "minic") program ctx =
  let literals = Array.of_list (Ast.string_literals program) in
  let st =
    {
      libc;
      ctx;
      policy = ctx.Program.policy;
      alloc = ctx.Program.alloc;
      fuel = ctx.Program.fuel;
      frames = [];
      literals = layout ~first:0 literals;
      literal_addrs = Array.make (Array.length literals) 0;
      nliterals = 0;
      input_pos = 0;
      prog_name = name;
      sites = 0;
    }
  in
  Option.iter (fun register -> register (roots st)) st.alloc.Allocator.register_roots;
  allocate_literals st;
  match Ast.find_func program "main" with
  | None -> err "no main function"
  | Some main ->
    if main.Ast.params <> [] then err "main takes no parameters";
    let c = { st; program; fns = Hashtbl.create 16; current = new_fn () } in
    let main = Option.get (function_named c "main") in
    let code = invoke st main (Array.make main.nslots 0) in
    if code <> 0 then raise (Process.Exit_program code)

let to_program ?libc ~name program =
  Program.make ~name (fun ctx -> run ?libc ~name program ctx)

let program_of_source ?libc ~name source =
  to_program ?libc ~name (Parser.parse_program source)
