type 'a t = {
  d : int;
  q : 'a Queue.t;
  mutable overflow : bool;
  mutable high_water : int;
}

let create ~depth =
  if depth < 1 then invalid_arg "Fifo.create: depth < 1";
  { d = depth; q = Queue.create (); overflow = false; high_water = 0 }

let depth t = t.d
let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let is_full t = Queue.length t.q >= t.d

let push t x =
  if is_full t then t.overflow <- true
  else begin
    Queue.add x t.q;
    t.high_water <- max t.high_water (Queue.length t.q)
  end

let pop t = Queue.take_opt t.q
let overflowed t = t.overflow
let max_occupancy t = t.high_water