-- The three Table 1 query classes (repro.hep.testbed.PaperTestbed)
SELECT event_id, e FROM ntuple_a WHERE event_id <= 15;

-- The one-server join (a comment's quote opens no string)
SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m
ON n.run_id = m.run_id WHERE n.event_id <= 100;

SELECT n.event_id, m.detector, o.e AS e_b, p.detector AS det_b
FROM ntuple_a n JOIN runmeta_a m ON n.run_id = m.run_id
JOIN ntuple_b o ON n.event_id = o.event_id
JOIN runmeta_b p ON o.run_id = p.run_id
WHERE n.event_id <= 100 AND o.event_id <= 100;

-- Two texts the gate must refuse: a UNION and an unknown column
SELECT run_id FROM ntuple_a UNION SELECT run_id FROM ntuple_b;

SELECT event_id, energy FROM ntuple_a WHERE event_id <= 15;
