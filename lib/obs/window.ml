type t = {
  width : int;
  buckets : int;
  counts : int array;
  stamps : int array; (* absolute bucket number a slot counts for; -1 empty *)
  mutable latest : int; (* newest absolute bucket ever written; -1 none *)
}

let create ~width ~buckets =
  if width <= 0 then invalid_arg "Window.create: width must be positive";
  if buckets <= 0 then invalid_arg "Window.create: buckets must be positive";
  {
    width;
    buckets;
    counts = Array.make buckets 0;
    stamps = Array.make buckets (-1);
    latest = -1;
  }

let span w = w.width * w.buckets
let geometry w = (w.width, w.buckets)

let add w ~now n =
  if Control.enabled () then begin
    if now < 0 then invalid_arg "Window.add: negative clock";
    let b = now / w.width in
    (* Drop writes that predate the trailing window of the newest bucket:
       their slot may already count for a newer bucket, and resurrecting
       an aged-out bucket would double-count on the next wrap. *)
    if b > w.latest - w.buckets then begin
      let slot = b mod w.buckets in
      if w.stamps.(slot) <> b then
        if w.stamps.(slot) > b then () (* slot owned by a newer bucket *)
        else begin
          w.stamps.(slot) <- b;
          w.counts.(slot) <- 0
        end;
      if w.stamps.(slot) = b then w.counts.(slot) <- w.counts.(slot) + n;
      if b > w.latest then w.latest <- b
    end
  end

let total w ~now =
  let b = now / w.width in
  let oldest = b - w.buckets + 1 in
  let acc = ref 0 in
  for slot = 0 to w.buckets - 1 do
    let s = w.stamps.(slot) in
    if s >= oldest && s <= b then acc := !acc + w.counts.(slot)
  done;
  !acc

let rate w ~now =
  let covered = min (now + 1) (span w) in
  if covered <= 0 then 0.
  else float_of_int (total w ~now) /. float_of_int covered
